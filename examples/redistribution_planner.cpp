// Redistribution planner: given two CRAFT-style block-cyclic distributions
// of a 3-D array, compute which PEs must exchange data, how much, and the
// TDM schedule that realizes the exchange — the compiled-communication
// treatment of the paper's Table 2 workload.
//
// Run:  ./redistribution_planner [--extent=64] [--seed=11] [--verbose]

#include <algorithm>
#include <iostream>

#include "apps/pipeline.hpp"
#include "redist/redistribution.hpp"
#include "sim/compiled.hpp"
#include "topo/torus.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace optdm;

  const util::CliArgs args(argc, argv);
  const auto extent = args.get_int("extent", 64);
  util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 11)));

  // Two random distributions of an extent^3 array over 64 PEs.
  const std::array<std::int64_t, 3> shape{extent, extent, extent};
  const auto from = redist::random_distribution(shape, 64, rng);
  const auto to = redist::random_distribution(shape, 64, rng);

  std::cout << "redistributing " << extent << "^3 array over 64 PEs\n"
            << "  from " << from.to_string() << "\n"
            << "  to   " << to.to_string() << "\n\n";

  const auto plan = redist::plan_redistribution(from, to);
  std::cout << "transfers: " << plan.transfers.size() << " PE pairs, "
            << plan.total_elements() << " elements total\n";

  if (plan.transfers.empty()) {
    std::cout << "distributions are equivalent; nothing to do\n";
    return 0;
  }

  // Compile the induced pattern and predict the communication time.
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  const auto compiled = pipeline.compile_phase(plan.pattern()).phase;

  std::vector<sim::Message> messages;
  for (const auto& t : plan.transfers)
    messages.push_back(sim::Message{
        t.request,
        sim::slots_for_elements(t.elements, apps::kWordsPerSlot)});
  const auto run = sim::simulate_compiled(compiled.schedule, messages);

  std::cout << "multiplexing degree K = " << compiled.schedule.degree()
            << " (winner " << sched::to_string(compiled.winner)
            << ", lower bound " << compiled.lower_bound << ")\n"
            << "predicted communication time: " << run.total_slots
            << " slots\n";

  if (args.get_bool("verbose")) {
    util::Table table({"src PE", "dst PE", "elements", "slot"});
    for (std::size_t i = 0; i < std::min<std::size_t>(plan.transfers.size(), 20);
         ++i) {
      const auto& t = plan.transfers[i];
      table.add_row({util::Table::fmt(std::int64_t{t.request.src}),
                     util::Table::fmt(std::int64_t{t.request.dst}),
                     util::Table::fmt(t.elements),
                     util::Table::fmt(std::int64_t{run.messages[i].slot})});
    }
    std::cout << "\nfirst transfers:\n";
    table.print(std::cout);
  }
  return 0;
}
