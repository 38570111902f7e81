#!/usr/bin/env python3
"""Builds and runs one workload of the optdm end-to-end benchmark.

Run from the repository root:

    python3 bench/e2e/run.py --workload warm_hits --seed 1 --seconds 20 --trace 0

The first run configures and builds bench/e2e (the optdm library, the
optdm_served daemon and optdm_bench, Release) under $CARGO_TARGET_DIR, or
.bench_build when unset; later runs only check the build is current.  The
output of optdm_bench is passed through, followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (the traced in-process replay).  The exit
status is 0 only when every output check passed and every metric was
measured.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures (once) and builds optdm_bench; returns (build dir, binary)."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no optdm sources at {root}; run from the repository root")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "--target", "optdm_bench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir, os.path.join(build_dir, "optdm_bench")


def run(command):
    """Runs optdm_bench in its own process group; returns (code, stdout)."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)

    def stop(*_):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: optdm_bench timed out", file=sys.stderr)
        stop()
    return child.returncode, out


def parse(out, kind):
    """The `<kind> name value unit count ...` lines, and the summary."""
    metrics, summary = {}, {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 5 and fields[0] == kind:
            metrics[fields[1]] = (float(fields[2]), fields[3])
        elif len(fields) == 2 and fields[0] in ("attempted", "failed", "correct"):
            summary[fields[0]] = int(fields[1])
    return metrics, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        fail("no BENCHMARK.json; run from the repository root")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir, binary = build(root)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}"]
    if args.trace:
        command.append(f"--trace={build_dir}/trace/{args.workload}-{args.seed}")
    code, out = run(command)
    sys.stdout.write(out)
    metrics, summary = parse(out, "layer" if args.trace else "metric")
    if "attempted" not in summary:
        print(f"run.py: optdm_bench exited {code} without a result", file=sys.stderr)
        sys.exit(1)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {}
    correct = code == 0 and summary.get("correct") == 1 and summary["attempted"] >= 1
    for m in wanted:
        value, unit = metrics.get(m["name"], (math.nan, None))
        if math.isnan(value) or unit != m["unit"]:
            print(f"run.py: metric {m['name']} not measured in {m['unit']}",
                  file=sys.stderr)
            correct = False
            continue
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": max(1, summary["attempted"]),
                      "failed": summary.get("failed", 0),
                      "metrics": result}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
