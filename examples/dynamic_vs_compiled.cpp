// Head-to-head of the paper's two control regimes on one workload:
// compiled communication (off-line scheduling, zero runtime control) vs
// the distributed dynamic path-reservation protocol at several fixed
// multiplexing degrees.
//
// Run:  ./dynamic_vs_compiled [--pattern=tscf|gs|p3m5|alltoall]
//                             [--message-slots=0 (0 = workload default)]

#include <iostream>

#include "apps/pipeline.hpp"
#include "apps/workloads.hpp"
#include "patterns/named.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace optdm;

  const util::CliArgs args(argc, argv);
  const auto which = args.get("pattern", "tscf");
  const auto forced_slots = args.get_int("message-slots", 0);

  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);

  apps::CommPhase phase;
  if (which == "gs") {
    phase = apps::gs_phase(64, 64);
  } else if (which == "tscf") {
    phase = apps::tscf_phase(64);
  } else if (which == "p3m5") {
    phase = apps::p3m_phases(32).back();
  } else if (which == "alltoall") {
    phase.name = "all-to-all";
    phase.problem = "64 PEs";
    phase.messages = sim::uniform_messages(patterns::all_to_all(64), 2);
  } else {
    std::cerr << "unknown --pattern (use gs|tscf|p3m5|alltoall)\n";
    return 1;
  }
  if (forced_slots > 0)
    for (auto& m : phase.messages) m.slots = forced_slots;

  std::cout << "pattern " << phase.name << " (" << phase.problem << "), "
            << phase.messages.size() << " messages\n\n";

  const auto compiled = pipeline.compile_phase(phase.pattern()).phase;
  const auto compiled_run =
      sim::simulate_compiled(compiled.schedule, phase.messages);

  util::Table table({"control", "K", "time (slots)", "retries", "vs compiled"});
  table.add_row({"compiled",
                 util::Table::fmt(std::int64_t{compiled.schedule.degree()}),
                 util::Table::fmt(compiled_run.total_slots), "0", "1.0x"});

  for (const int k : {1, 2, 5, 10}) {
    sim::DynamicParams params;
    params.multiplexing_degree = k;
    const auto run = sim::simulate_dynamic(net, phase.messages, params);
    table.add_row(
        {"dynamic", util::Table::fmt(std::int64_t{k}),
         run.completed ? util::Table::fmt(run.total_slots) : "dnf",
         util::Table::fmt(run.total_retries),
         util::Table::fmt(static_cast<double>(run.total_slots) /
                              static_cast<double>(compiled_run.total_slots),
                          1) +
             "x"});
  }
  table.print(std::cout);

  std::cout << "\ncompiled communication pays zero control overhead at run "
               "time and uses the\npattern-optimal multiplexing degree; the "
               "dynamic protocol pays reservation\nround-trips, retries "
               "under contention, and a fixed K.\n";
  return 0;
}
