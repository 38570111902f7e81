// Observability tour: trace an engine run and render its run report.
//
// The same workload is executed three ways with the `src/obs` layer
// switched on:
//  * the combined off-line scheduler with phase counters attached,
//  * the compiled engine with an event trace,
//  * the dynamic reservation protocol under a faulty fabric, traced.
//
// The dynamic trace and its RunReport are written as JSON: the trace in
// Chrome trace_event format (open in Perfetto or chrome://tracing — one
// lane per source node and per faulted link), the report in the
// `optdm-run-report/1` schema that tools/run_report.py renders and
// validates.  Utilization and stall summaries are printed here directly.
//
// Run:  ./trace_demo [--messages=150] [--slots=4] [--seed=21]
//                    [--trace=trace_demo.trace.json]
//                    [--report=trace_demo.report.json]

#include <algorithm>
#include <fstream>
#include <iostream>

#include "apps/pipeline.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "patterns/random.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"
#include "sim/faults.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace optdm;

  const util::CliArgs args(argc, argv);
  const auto count = args.get_int("messages", 150);
  const auto slots = args.get_int("slots", 4);
  const auto seed = args.get_int("seed", 21);
  const auto trace_path = args.get("trace", "trace_demo.trace.json");
  const auto report_path = args.get("report", "trace_demo.report.json");

  topo::TorusNetwork net(8, 8);
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const auto requests =
      patterns::random_pattern(64, static_cast<int>(count), rng);
  const auto messages = sim::uniform_messages(requests, slots);

  // --- Off-line scheduling, with phase counters. ---
  // Cache off: the counters report the scheduling phases of a cold
  // compile and nothing else.
  apps::PipelineOptions options;
  options.use_cache = false;
  apps::Pipeline pipeline(net, options);
  obs::SchedCounters counters;
  const auto phase = pipeline.compile_phase(requests, &counters).phase;
  std::cout << "compiled " << requests.size() << " requests to degree "
            << phase.schedule.degree() << " (winner: "
            << counters.combined_winner << ", lower bound "
            << phase.lower_bound << ")\n";
  util::Table phases({"phase", "time (us)", "work"});
  const auto us = [](std::int64_t ns) {
    return ns < 0 ? std::string("-") : util::Table::fmt(ns / 1000);
  };
  phases.add_row({"routing", us(counters.route_ns), "-"});
  phases.add_row({"conflict graph", us(counters.graph_build_ns),
                  util::Table::fmt(counters.conflict_edges) + " edges"});
  phases.add_row({"coloring", us(counters.coloring_ns),
                  util::Table::fmt(std::int64_t{counters.coloring_passes}) +
                      " passes"});
  phases.add_row({"ordered AAPC", us(counters.aapc_ns),
                  "degree " +
                      util::Table::fmt(std::int64_t{counters.aapc_degree})});
  phases.print(std::cout);

  // --- Compiled engine, traced. ---
  obs::Trace compiled_trace;
  sim::SimOptions compiled_options;
  compiled_options.trace = &compiled_trace;
  const auto compiled = sim::simulate_compiled(phase.schedule, messages, {},
                                               compiled_options);
  std::cout << "\ncompiled engine: " << compiled.total_slots << " slots, "
            << compiled_trace.events().size() << " trace events ("
            << compiled_trace.count("payload") << " payload spans)\n";

  // --- Dynamic protocol under faults, traced + reported. ---
  sim::FaultSpec spec;
  spec.kill_probability = 0.01;
  spec.flap_probability = 0.05;
  spec.ctrl_loss = 0.05;
  spec.seed = 0xfa017;
  const auto timeline = sim::random_fault_timeline(net, spec);

  sim::DynamicParams params;
  params.multiplexing_degree = 5;
  params.retry_budget = 8;
  params.max_backoff_slots = 512;
  params.seed = static_cast<std::uint64_t>(seed);

  obs::Trace trace;
  sim::SimOptions dyn_options;
  dyn_options.faults = &timeline;
  dyn_options.trace = &trace;
  const auto run = sim::simulate_dynamic(net, messages, params, dyn_options);
  const auto report = obs::report_dynamic(net, messages, run, params);

  std::cout << "\ndynamic engine under faults (K=" << params.multiplexing_degree
            << "): " << run.total_slots << " slots, "
            << report.delivered << '/' << report.messages_total
            << " delivered, " << run.total_retries << " retries, "
            << run.faults.timeouts << " timeouts\n\n";

  util::Table busiest({"link", "busy slots", "share"});
  auto by_usage = report.links;  // report order is ascending link id
  std::sort(by_usage.begin(), by_usage.end(),
            [](const auto& a, const auto& b) {
              return a.busy_slots > b.busy_slots;
            });
  const auto top = std::min<std::size_t>(8, by_usage.size());
  for (std::size_t i = 0; i < top; ++i) {
    const auto& usage = by_usage[i];
    busiest.add_row(
        {util::Table::fmt(std::int64_t{usage.link}),
         util::Table::fmt(usage.busy_slots),
         util::Table::fmt(100.0 * static_cast<double>(usage.busy_slots) /
                              static_cast<double>(report.payload_link_slots),
                          1) +
             "%"});
  }
  std::cout << "busiest links (" << report.links.size() << " used, "
            << report.payload_link_slots << " payload-link-slots total):\n";
  busiest.print(std::cout);

  std::cout << "\ntop stall causes:\n";
  util::Table stalls({"cause", "count", "slots"});
  for (const auto& stall : report.stalls)
    stalls.add_row({stall.cause, util::Table::fmt(stall.count),
                    stall.slots < 0 ? "-" : util::Table::fmt(stall.slots)});
  stalls.print(std::cout);

  std::ofstream trace_out(trace_path);
  trace.write_chrome(trace_out);
  std::ofstream report_out(report_path);
  report.write_json(report_out);
  if (!trace_out || !report_out) {
    std::cerr << "error: could not write " << trace_path << " or "
              << report_path << '\n';
    return 1;
  }
  std::cout << "\nwrote " << trace_path << " (" << trace.events().size()
            << " events on " << trace.tracks().size()
            << " tracks; open in Perfetto) and " << report_path << '\n';
  return 0;
}
