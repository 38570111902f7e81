// The sweep workload: Table 5 as a batch experiment, run in-process
// through SweepRunner::run_sharded.  The service layer is not involved.

#include <memory>
#include <sstream>

#include "inputs.hpp"
#include "io/pattern_io.hpp"
#include "topo/torus.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace optdm::bench {

namespace {

/// Cells of `result` that did not complete cleanly.
std::int64_t bad_cells(const apps::SweepResult& result) {
  std::int64_t bad = 0;
  for (const auto& cell : result.compiled)
    if (cell.missing || cell.result.total_slots <= 0) ++bad;
  for (const auto& cell : result.dynamic)
    if (cell.missing || !cell.result.completed || !cell.result.clean_shutdown)
      ++bad;
  return bad;
}

}  // namespace

void run_sweep(const RunConfig& config, Report& report) {
  const auto phases = table5_phases();
  const topo::TorusNetwork net(8, 8);
  std::vector<apps::SweepGrid> grids;
  std::unique_ptr<apps::SweepRunner> runner;
  std::vector<double> setup;
  for (int rep = 0; rep < config.setup_reps(5); ++rep) {
    const auto started = Clock::now();
    runner = std::make_unique<apps::SweepRunner>(net);
    grids.clear();
    for (std::size_t op = 0; op < kSweepCycle; ++op)
      grids.push_back(sweep_grid(phases, config.seed, op));
    for (const auto& phase : phases)
      runner->pipeline().compile_phase(phase.pattern());
    setup.push_back(s_between(started, Clock::now()));
  }
  report.metric("setup_s", util::percentile(setup, 50), "s", setup.size());

  apps::ShardOptions shards;
  shards.shards = 2;
  std::vector<std::string> lines(kSweepCycle);
  std::vector<double> latencies;
  std::int64_t cells = 0;
  std::int64_t bad = 0;
  const auto started = Clock::now();
  for (std::size_t op = 0;
       op < kSweepPrefix || s_between(started, Clock::now()) < config.seconds;
       ++op) {
    const auto& grid = grids[op % kSweepCycle];
    const auto sent = Clock::now();
    const auto result = runner->run_sharded(grid, shards);
    latencies.push_back(ms_between(sent, Clock::now()));
    cells += static_cast<std::int64_t>(result.compiled.size() + result.dynamic.size());
    bad += bad_cells(result);
    const auto& s = result.supervision;
    report.check(s.retries + s.salvaged_cells == 0, "sweep shard incident");
    auto line = cells_line(result);
    auto& seen = lines[op % kSweepCycle];
    if (seen.empty()) seen = std::move(line);
    else report.check(seen == line, "sweep op " + std::to_string(op) +
                                        " differs from its earlier run");
  }
  const double elapsed = s_between(started, Clock::now());

  report.metric("throughput_per_s", static_cast<double>(cells) / elapsed, "1/s",
                static_cast<std::size_t>(cells));
  report.percentile("latency_p50_ms", latencies, 50, "ms");
  report.percentile("latency_tail_ms", latencies, 99, "ms");
  report.extra("cells_per_s", static_cast<double>(cells) / elapsed, "1/s",
               static_cast<std::size_t>(cells));

  // Sharding must not change a cell: the first operation again, unsharded.
  report.check(cells_line(runner->run(grids[0])) == lines[0],
               "run_sharded differs from run");
  double degree = 0;
  double bound = 0;
  int below_reported_lb = 0;
  for (const auto& phase : phases) {
    const auto compiled = runner->pipeline().compile_phase(phase.pattern());
    std::ostringstream text;
    io::write_schedule(text, net, compiled.phase.schedule);
    const auto why = check_schedule(net, phase.pattern(), text.str(),
                                    compiled.phase.schedule.degree(),
                                    compiled.phase.lower_bound, &below_reported_lb);
    report.check(why.empty(), phase.name + " " + phase.problem + ": " + why);
    degree += compiled.phase.schedule.degree();
    bound += compiled.phase.lower_bound;
  }
  report.extra("below_reported_lb", below_reported_lb, "count", phases.size());
  report.metric("peak_rss_mb",
                std::max(peak_rss_mib(), children_peak_rss_mib()), "MiB", 1);
  report.metric("degree_over_lb", degree / bound, "ratio", phases.size());
  report.attempted = cells;
  report.failed = bad;
  report.check(bad == 0, std::to_string(bad) + " sweep cells did not complete");

  std::string outputs;
  for (std::size_t op = 0; op < kSweepPrefix; ++op) outputs += lines[op];
  report.digest(config, outputs);
}

}  // namespace optdm::bench
