#include "sched/combined.hpp"

#include <algorithm>
#include <vector>

#include "sched/bounds.hpp"
#include "sched/coloring.hpp"
#include "sched/ordered_aapc.hpp"
#include "util/parallel.hpp"

namespace optdm::sched {

CombinedResult combined_with_winner(const aapc::TorusAapc& aapc,
                                    const core::RequestSet& requests,
                                    obs::SchedCounters* counters) {
  return combined_with_winner(aapc, requests, counters, nullptr);
}

CombinedResult combined_with_winner(const aapc::TorusAapc& aapc,
                                    const core::RequestSet& requests,
                                    obs::SchedCounters* counters,
                                    int* lower_bound) {
  // The two component algorithms are independent, so the compiler runs
  // them concurrently; the winner rule below is evaluated after both
  // finish, so the result does not depend on which branch completes first.
  // Each branch measures into its own counters to avoid sharing, merged
  // after the barrier.
  core::Schedule by_coloring;
  core::Schedule by_aapc;
  obs::SchedCounters coloring_counters;
  obs::SchedCounters aapc_counters;
  util::parallel_invoke(
      [&] {
        // `coloring(net, requests)` spelled out, keeping the routes and
        // the graph's clique for the bound.
        obs::SchedCounters* measured = counters ? &coloring_counters : nullptr;
        std::vector<core::Path> paths;
        {
          obs::PhaseTimer timer(measured, &obs::SchedCounters::route_ns);
          paths = core::route_all(aapc.network(), requests);
        }
        int clique = 0;
        by_coloring = coloring_paths(aapc.network(), paths,
                                     ColoringPriority::kDegreeTimesLength,
                                     measured, lower_bound ? &clique : nullptr);
        if (lower_bound)
          *lower_bound =
              std::max(link_congestion_bound(aapc.network(), paths), clique);
      },
      [&] {
        obs::PhaseTimer timer(counters ? &aapc_counters : nullptr,
                              &obs::SchedCounters::aapc_ns);
        by_aapc = ordered_aapc(aapc, requests);
      });
  if (counters) {
    *counters = coloring_counters;
    counters->aapc_ns = aapc_counters.aapc_ns;
    counters->aapc_degree = by_aapc.degree();
  }
  if (by_aapc.degree() < by_coloring.degree()) {
    if (counters) counters->combined_winner = to_string(CombinedWinner::kOrderedAapc);
    return CombinedResult{std::move(by_aapc), CombinedWinner::kOrderedAapc};
  }
  if (counters) counters->combined_winner = to_string(CombinedWinner::kColoring);
  return CombinedResult{std::move(by_coloring), CombinedWinner::kColoring};
}

core::Schedule combined(const aapc::TorusAapc& aapc,
                        const core::RequestSet& requests) {
  return combined_with_winner(aapc, requests).schedule;
}

core::Schedule combined(const topo::TorusNetwork& net,
                        const core::RequestSet& requests) {
  const aapc::TorusAapc decomposition(net);
  return combined(decomposition, requests);
}

std::string to_string(CombinedWinner winner) {
  return winner == CombinedWinner::kColoring ? "coloring" : "ordered-aapc";
}

}  // namespace optdm::sched
