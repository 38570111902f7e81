#include "sched/coloring.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/conflict_graph.hpp"

namespace optdm::sched {

namespace {

double priority_value(ColoringPriority rule, int length, int dynamic_degree,
                      int static_degree) {
  const int degree =
      rule == ColoringPriority::kStaticLengthOverDegree ? static_degree
                                                        : dynamic_degree;
  switch (rule) {
    case ColoringPriority::kDegreeTimesLength:
      return static_cast<double>(degree) * static_cast<double>(length);
    case ColoringPriority::kDegreeOnly:
      return static_cast<double>(degree);
    case ColoringPriority::kLengthOnly:
      return static_cast<double>(length);
    case ColoringPriority::kInverseDegree:
      return degree == 0 ? std::numeric_limits<double>::infinity()
                         : 1.0 / static_cast<double>(degree);
    case ColoringPriority::kLengthOverDegree:
    case ColoringPriority::kStaticLengthOverDegree:
      return degree == 0 ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(length) /
                               static_cast<double>(degree);
  }
  return 0.0;
}

}  // namespace

core::Schedule coloring_paths(const topo::Network& net,
                              std::span<const core::Path> paths,
                              ColoringPriority rule,
                              obs::SchedCounters* counters, int* clique) {
  const auto n = static_cast<std::int32_t>(paths.size());
  core::Schedule schedule;
  if (clique) *clique = 0;
  if (n == 0) {
    if (counters) {
      counters->conflict_vertices = 0;
      counters->conflict_edges = 0;
      counters->coloring_passes = 0;
      counters->coloring_degree = 0;
    }
    return schedule;
  }

  const core::ConflictGraph graph = [&] {
    obs::PhaseTimer timer(counters, &obs::SchedCounters::graph_build_ns);
    return core::ConflictGraph(paths);
  }();
  if (counters) {
    counters->conflict_vertices = graph.vertex_count();
    counters->conflict_edges = static_cast<std::int64_t>(graph.edge_count());
  }
  if (clique) *clique = static_cast<int>(graph.heuristic_clique().size());

  // Per-vertex scheduling state, packed so the neighbor-update loop (the
  // hottest loop of the whole compiler) touches one cache line per vertex.
  // `uncolored_degree` is the degree within the still-uncolored subgraph,
  // decremented whenever a neighbor is colored — the paper's priority
  // update (Fig. 4, lines 13-16).  `excluded_in_pass` is the per-pass
  // WORK-set exclusion flag: vertices adjacent to something colored in the
  // current pass cannot join its configuration.
  struct VertexState {
    int uncolored_degree = 0;
    std::int32_t excluded_in_pass = -1;
  };
  std::vector<VertexState> state(static_cast<std::size_t>(n));
  std::vector<int> static_degree(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    state[static_cast<std::size_t>(v)].uncolored_degree = graph.degree(v);
    static_degree[static_cast<std::size_t>(v)] = graph.degree(v);
  }

  std::vector<std::uint8_t> colored(static_cast<std::size_t>(n), 0);
  std::int32_t colored_count = 0;
  std::int32_t pass = 0;

  // Selection runs off a max-heap rebuilt once per pass instead of an
  // O(n) scan per pick.  This is exact, not approximate: whenever a
  // vertex's priority changes mid-pass (its `uncolored_degree` drops
  // because a neighbor was colored), that vertex simultaneously leaves the
  // pass's WORK set — so the priorities of *eligible* heap entries are
  // immutable within a pass, and lazy skipping of excluded entries yields
  // exactly the linear scan's selection order.  The comparator breaks
  // priority ties toward the lower vertex index, matching the scan.
  using Entry = std::pair<double, std::int32_t>;
  const auto heap_less = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::vector<Entry> heap;
  heap.reserve(static_cast<std::size_t>(n));

  obs::PhaseTimer color_timer(counters, &obs::SchedCounters::coloring_ns);
  while (colored_count < n) {
    heap.clear();
    for (std::int32_t v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (colored[vi]) continue;
      heap.emplace_back(priority_value(rule, paths[vi].hops(),
                                       state[vi].uncolored_degree,
                                       static_degree[vi]),
                        v);
    }
    std::make_heap(heap.begin(), heap.end(), heap_less);

    core::Configuration config(net.link_count());
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_less);
      const auto best = heap.back().second;
      heap.pop_back();
      const auto bi = static_cast<std::size_t>(best);
      if (state[bi].excluded_in_pass == pass) continue;

      colored[bi] = 1;
      ++colored_count;
      const bool added = config.add(paths[bi]);
      // The WORK-set discipline guarantees no conflict with the members
      // already chosen this pass.
      if (!added)
        throw std::logic_error(
            "coloring: WORK-set invariant violated (conflicting vertex "
            "selected)");
      // Updates run unconditionally: the stale degree / exclusion of an
      // already-colored neighbor is never read again (only uncolored
      // vertices enter the per-pass heap), and skipping the branch keeps
      // this loop — Σ degree ≈ 2·edges iterations — branch-free.
      for (const auto neighbor : graph.neighbors(best)) {
        auto& ns = state[static_cast<std::size_t>(neighbor)];
        --ns.uncolored_degree;     // priority update
        ns.excluded_in_pass = pass;  // WORK = WORK - n_i
      }
    }
    schedule.append(std::move(config));
    ++pass;
  }
  if (counters) {
    counters->coloring_passes = pass;
    counters->coloring_degree = schedule.degree();
  }
  return schedule;
}

core::Schedule coloring(const topo::Network& net,
                        const core::RequestSet& requests,
                        ColoringPriority rule, obs::SchedCounters* counters) {
  std::vector<core::Path> paths;
  {
    obs::PhaseTimer timer(counters, &obs::SchedCounters::route_ns);
    paths = core::route_all(net, requests);
  }
  return coloring_paths(net, paths, rule, counters);
}

}  // namespace optdm::sched
