// Pattern zoo: every communication pattern in the library (the paper's
// Tables 3 and 4), its size, its compiled multiplexing degree, and the
// lower bound — plus a rendering of one configuration, reproducing the
// flavor of the paper's Fig. 1.
//
// Run:  ./pattern_zoo [--show-config]

#include <iostream>

#include "apps/pipeline.hpp"
#include "apps/workloads.hpp"
#include "patterns/named.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace optdm;

  const util::CliArgs args(argc, argv);
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);

  std::cout << "pattern zoo on " << net.name() << "\n\n";

  struct Row {
    std::string name;
    core::RequestSet requests;
  };
  std::vector<Row> rows{
      {"linear neighbors (GS)", patterns::linear_neighbors(64)},
      {"ring", patterns::ring(64)},
      {"nearest neighbor", patterns::nearest_neighbor(net)},
      {"hypercube (TSCF)", patterns::hypercube(64)},
      {"shuffle-exchange", patterns::shuffle_exchange(64)},
      {"26-point stencil (P3M 5)", patterns::stencil26(4, 4, 4)},
      {"all-to-all", patterns::all_to_all(64)},
  };
  for (auto& phase : apps::p3m_phases(64)) {
    if (phase.name == "P3M 5") continue;  // same as stencil26 above
    rows.push_back({phase.name + " redistribution", phase.pattern()});
  }

  util::Table table({"pattern", "connections", "K (combined)", "lower bound",
                     "winner"});
  for (const auto& row : rows) {
    const auto compiled = pipeline.compile_phase(row.requests).phase;
    table.add_row({row.name,
                   util::Table::fmt(static_cast<std::int64_t>(row.requests.size())),
                   util::Table::fmt(std::int64_t{compiled.schedule.degree()}),
                   util::Table::fmt(std::int64_t{compiled.lower_bound}),
                   sched::to_string(compiled.winner)});
  }
  table.print(std::cout);

  if (args.get_bool("show-config")) {
    // Fig.-1-style rendering: one configuration of the ring pattern, as
    // the set of simultaneously established connections.
    const auto compiled =
        pipeline.compile_phase(patterns::ring(64)).phase;
    std::cout << "\nconfiguration 0 of the ring schedule (Fig. 1 style):\n{";
    bool first = true;
    for (const auto& path : compiled.schedule.configuration(0).paths()) {
      if (!first) std::cout << ", ";
      first = false;
      std::cout << "(" << path.request.src << "," << path.request.dst << ")";
    }
    std::cout << "}\n";
  }
  return 0;
}
