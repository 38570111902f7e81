#!/usr/bin/env python3
"""Compares two sets of optdm end-to-end benchmark runs.

    compare.py BASE_DIR [CHANGE_DIR] [--benchmark BENCHMARK.json]
    compare.py --self-test

A set is a directory of run outputs, one file per run: the stdout of
bench/e2e/run.py or of optdm_bench (`workload ... seed ...`, `metric ...`,
`schedule_digest ...`, `attempted`, `failed` lines).  Runs pair up by
workload and file name order, so name them alike in both sets (for example
`<workload>-<seed>-<i>.txt`) and alternate which side runs first.

With one set, prints each workload's median, quartiles and spread
(interquartile range over median) per end-to-end metric, against the
metric's bound.  With two, adds a verdict per metric:

  better      the change wins at least 9 of 10 pairs and its median is
              ahead by more than the base's interquartile range, or every
              change run beats every base run;
  unresolved  the spread of either set exceeds the metric's bound;
  worse       the change's median is behind by more than the bound;
  same        otherwise.

Exits 1 when any verdict is `worse`, or when two runs of one workload and
seed disagree on `schedule_digest` (within a set or across the two).
"""

import argparse
import json
import math
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_run(text):
    """One run's output: workload, seed, metrics, digest, attempted, failed."""
    run = {"workload": None, "seed": None, "metrics": {}, "digest": None,
           "attempted": 0, "failed": 0}
    for line in text.splitlines():
        f = line.split()
        if len(f) >= 4 and f[0] == "workload" and f[2] == "seed":
            run["workload"], run["seed"] = f[1], f[3]
        elif len(f) >= 5 and f[0] == "metric":
            value = float(f[2])
            if not math.isnan(value):
                run["metrics"][f[1]] = value
        elif len(f) == 2 and f[0] == "schedule_digest":
            run["digest"] = f[1]
        elif len(f) == 2 and f[0] in ("attempted", "failed"):
            run[f[0]] = int(f[1])
    return run


def load_set(directory):
    """{workload: [run, ...]} in file name order."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            run = parse_run(f.read())
        if run["workload"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def verdict(base, change, better, bound):
    """The verdict of `change` against `base` (paired, same length)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    _, change_median, _ = quartiles(change)
    gain = sign * (change_median - base_median)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    every_better = all(sign * (c - b) > 0 for b in base for c in change)
    every_worse = all(sign * (c - b) < 0 for b in base for c in change)
    if every_better or (wins >= math.ceil(0.9 * len(pairs)) and gain > q3 - q1):
        return "better"
    if every_worse and -gain > bound * abs(base_median):
        return "worse"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    if -gain > bound * abs(base_median):
        return "worse"
    return "same"


def digest_problems(*sets):
    """Workload/seed pairs whose runs disagree on schedule_digest."""
    seen, problems = {}, []
    for runs in sets:
        for workload, items in runs.items():
            for run in items:
                if run["digest"] is None:
                    continue
                key = (workload, run["seed"])
                if seen.setdefault(key, run["digest"]) != run["digest"]:
                    problems.append(f"{workload} seed {run['seed']}: digest "
                                    f"{run['digest']} != {seen[key]}")
    return problems


def compare(base, change, metrics, out):
    """Prints the table; returns the number of `worse` verdicts."""
    worse = 0
    for workload in sorted(base):
        a_runs = base[workload]
        b_runs = change.get(workload, []) if change is not None else []
        for label, runs in (("base", a_runs), ("change", b_runs)):
            if runs:
                attempted = sum(r["attempted"] for r in runs)
                failed = sum(r["failed"] for r in runs)
                out.write(f"{workload} {label}: {len(runs)} runs, failed_frac "
                          f"{failed / attempted if attempted else 0:.6g}\n")
        for m in metrics:
            a = [r["metrics"][m["name"]] for r in a_runs if m["name"] in r["metrics"]]
            if not a:
                continue
            q1, median, q3 = quartiles(a)
            row = (f"  {m['name']:<18} base {median:.6g} [{q1:.6g}, {q3:.6g}] "
                   f"spread {spread(a):.3f}/{m['bound']}")
            if change is not None:
                pairs = [(r1["metrics"][m["name"]], r2["metrics"][m["name"]])
                         for r1, r2 in zip(a_runs, b_runs)
                         if m["name"] in r1["metrics"] and m["name"] in r2["metrics"]]
                if pairs:
                    a_p, b_p = [p[0] for p in pairs], [p[1] for p in pairs]
                    c1, cm, c3 = quartiles(b_p)
                    v = verdict(a_p, b_p, m["better"], m["bound"])
                    worse += v == "worse"
                    row += (f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
                            f"spread {spread(b_p):.3f}  {v}")
            out.write(row + "\n")
    return worse


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        result = unittest.main(argv=["compare.py"], exit=False, verbosity=1).result
        return 0 if result.wasSuccessful() else 1
    if not args.base:
        parser.error("BASE_DIR is required")
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base = load_set(args.base)
    change = load_set(args.change) if args.change else None
    worse = compare(base, change, metrics, sys.stdout)
    problems = digest_problems(base, *([change] if change else []))
    for p in problems:
        print(f"digest mismatch: {p}")
    return 1 if problems or worse else 0


# ---------------------------------------------------------------- self-test

def _run_text(workload, seed, metrics, digest="00ff"):
    lines = [f"workload {workload} seed {seed} seconds 15"]
    lines += [f"metric {k} {v} ms 1000" for k, v in metrics.items()]
    lines += [f"schedule_digest {digest}", "attempted 1000", "failed 0", "correct 1"]
    return "\n".join(lines) + "\n"


_METRICS = [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]


def _set(latencies, throughputs, digest="00ff"):
    return {"w": [parse_run(_run_text("w", i + 1, {"latency_p50_ms": l,
                                                   "throughput_per_s": t}, digest))
                  for i, (l, t) in enumerate(zip(latencies, throughputs))]}


class SelfTest(unittest.TestCase):
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]

    def verdicts(self, a, b):
        import io
        out = io.StringIO()
        worse = compare(a, b, _METRICS, out)
        return out.getvalue(), worse

    def test_parse_skips_unmeasured_percentiles(self):
        run = parse_run("workload w seed 3 seconds 1\nmetric latency_tail_ms nan ms 5 p99 (x)\n"
                        "metric setup_s 0.5 s 3\nschedule_digest ab\nattempted 7\n")
        self.assertEqual(run["metrics"], {"setup_s": 0.5})
        self.assertEqual((run["seed"], run["digest"], run["attempted"]), ("3", "ab", 7))

    def test_same_commit_is_same(self):
        text, worse = self.verdicts(_set(self.base, self.base), _set(self.base[::-1], self.base))
        self.assertEqual(worse, 0)
        self.assertEqual(text.count(" same"), 2, text)

    def test_slower_change_is_worse(self):
        slower = [v * 1.3 for v in self.base]
        text, worse = self.verdicts(_set(self.base, self.base), _set(slower, self.base))
        self.assertEqual(worse, 1, text)

    def test_faster_change_is_better(self):
        faster = [v * 1.2 for v in self.base]
        text, _ = self.verdicts(_set(self.base, self.base), _set(self.base, faster))
        self.assertIn("better", text)

    def test_noisy_metric_is_unresolved(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 8.0, 12.0]
        self.assertEqual(verdict(noisy, noisy[::-1], "lower", 0.1), "unresolved")

    def test_gain_within_base_spread_is_not_better(self):
        a = [10.0, 10.4, 9.6, 10.3, 9.7, 10.2, 9.8, 10.1, 9.9, 10.0]
        b = [v - 0.05 for v in a]
        self.assertEqual(verdict(a, b, "lower", 0.1), "same")

    def test_digest_mismatch_fails(self):
        a, b = _set(self.base, self.base, "00ff"), _set(self.base, self.base, "00fe")
        self.assertTrue(digest_problems(a, b))
        self.assertFalse(digest_problems(a, _set(self.base, self.base, "00ff")))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
