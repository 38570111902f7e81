// Quickstart: compile a communication pattern for a TDM all-optical torus.
//
//   1. build the network (an 8x8 torus of 5x5 electro-optical switches),
//   2. describe the pattern the program's next phase needs,
//   3. let the compiler partition it into conflict-free configurations,
//   4. inspect the multiplexing degree and the per-slot switch settings.
//
// Run:  ./quickstart [--cols=8] [--rows=8]

#include <iostream>

#include "apps/pipeline.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace optdm;

  const util::CliArgs args(argc, argv);
  const auto cols = static_cast<int>(args.get_int("cols", 8));
  const auto rows = static_cast<int>(args.get_int("rows", 8));

  // 1. The network.  Every node owns one processor port pair and four
  //    fiber pairs; routing is dimension-order with wraparound.
  topo::TorusNetwork net(cols, rows);
  std::cout << "network: " << net.name() << ", " << net.node_count()
            << " nodes, " << net.link_count() << " directed links\n";

  // 2. A small pattern: a ring over the first six PEs plus two long-haul
  //    connections.
  core::RequestSet pattern;
  for (topo::NodeId i = 0; i < 6; ++i)
    pattern.push_back({i, (i + 1) % 6});
  pattern.push_back({0, net.node_count() - 1});
  pattern.push_back({net.node_count() - 1, 0});

  // 3. Compile.  The combined algorithm runs the coloring heuristic and
  //    the ordered-AAPC algorithm and keeps the better schedule.
  apps::Pipeline pipeline(net);
  const auto compiled = pipeline.compile_phase(pattern).phase;

  std::cout << "pattern: " << pattern.size() << " connection requests\n"
            << "multiplexing degree K = " << compiled.schedule.degree()
            << " (lower bound " << compiled.lower_bound << ", winner: "
            << sched::to_string(compiled.winner) << ")\n\n";

  // 4. The configurations.  Slot t of every TDM frame establishes
  //    configuration t; a connection's data moves one slot-payload per
  //    frame in its slot.
  for (int slot = 0; slot < compiled.schedule.degree(); ++slot) {
    std::cout << "slot " << slot << ":";
    for (const auto& path : compiled.schedule.configuration(slot).paths()) {
      std::cout << "  (" << path.request.src << "->" << path.request.dst
                << ", " << path.hops() << " hops)";
    }
    std::cout << '\n';
  }
  return 0;
}
