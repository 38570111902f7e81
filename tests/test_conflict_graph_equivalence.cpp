// Property tests for the offline-compilation fast path:
//  1. the inverted-index ConflictGraph construction matches the all-pairs
//     definition (an edge iff two paths share a directed link) pair by
//     pair on random patterns over every topology family;
//  2. coloring_paths output is byte-identical to the pre-heap-rewrite
//     reference implementation (a literal O(n) best-vertex scan per
//     selection, reproduced below) for every ColoringPriority rule.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/conflict_graph.hpp"
#include "patterns/random.hpp"
#include "sched/coloring.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/omega.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;
using core::ConflictGraph;

struct Topology {
  std::unique_ptr<topo::Network> net;
  int nodes;
};

std::vector<Topology> topology_zoo() {
  std::vector<Topology> zoo;
  zoo.push_back({std::make_unique<topo::TorusNetwork>(4, 4), 16});
  zoo.push_back({std::make_unique<topo::TorusNetwork>(8, 8), 64});
  zoo.push_back({std::make_unique<topo::MeshNetwork>(4, 4), 16});
  zoo.push_back({std::make_unique<topo::HypercubeNetwork>(16), 16});
  zoo.push_back({std::make_unique<topo::OmegaNetwork>(16), 16});
  return zoo;
}

/// The oracle: two paths conflict iff their own link lists share a link.
bool shares_link(const core::Path& a, const core::Path& b) {
  for (const auto x : a.links)
    for (const auto y : b.links)
      if (x == y) return true;
  return false;
}

/// Checks every (i, j) of `graph` against the oracle, and the neighbor
/// lists, degrees and edge count derived from it.
void expect_matches_pairwise_oracle(const ConflictGraph& graph,
                                    std::span<const core::Path> paths) {
  const auto n = static_cast<std::int32_t>(paths.size());
  ASSERT_EQ(graph.vertex_count(), n);
  std::size_t endpoints = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    std::vector<std::int32_t> expected;
    for (std::int32_t j = 0; j < n; ++j) {
      const bool conflict =
          i != j && shares_link(paths[static_cast<std::size_t>(i)],
                                paths[static_cast<std::size_t>(j)]);
      ASSERT_EQ(graph.adjacent(i, j), conflict)
          << "pair (" << i << ", " << j << ")";
      if (conflict) expected.push_back(j);
    }
    const auto neighbors = graph.neighbors(i);
    ASSERT_EQ(std::vector<std::int32_t>(neighbors.begin(), neighbors.end()),
              expected)
        << "vertex " << i;
    ASSERT_EQ(graph.degree(i), static_cast<int>(expected.size()));
    endpoints += expected.size();
  }
  EXPECT_EQ(graph.edge_count(), endpoints / 2);
}

TEST(ConflictGraphEquivalence, MatchesBruteForceOnAllTopologies) {
  util::Rng rng(20260806);
  for (const auto& topology : topology_zoo()) {
    const std::int64_t universe =
        static_cast<std::int64_t>(topology.nodes) * (topology.nodes - 1);
    for (const int conns : {1, 10, 60, static_cast<int>(universe / 2)}) {
      const auto requests =
          patterns::random_pattern(topology.nodes, conns, rng);
      const auto paths = core::route_all(*topology.net, requests);
      SCOPED_TRACE(topology.net->name() + ", " + std::to_string(conns) +
                   " connections");
      expect_matches_pairwise_oracle(ConflictGraph(paths), paths);
    }
  }
}

// ---------------------------------------------------------------------------
// Reference coloring: the exact algorithm coloring_paths implemented before
// the per-pass heap rewrite — an O(n) highest-priority scan per selection
// with ties broken toward the lower index.
// ---------------------------------------------------------------------------

double reference_priority(sched::ColoringPriority rule, int length,
                          int dynamic_degree, int static_degree) {
  using sched::ColoringPriority;
  const int degree = rule == ColoringPriority::kStaticLengthOverDegree
                         ? static_degree
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

core::Schedule reference_coloring(const topo::Network& net,
                                  std::span<const core::Path> paths,
                                  sched::ColoringPriority rule) {
  const auto n = static_cast<std::int32_t>(paths.size());
  core::Schedule schedule;
  if (n == 0) return schedule;

  const core::ConflictGraph graph(paths);
  std::vector<int> uncolored_degree(static_cast<std::size_t>(n));
  std::vector<int> static_degree(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    uncolored_degree[static_cast<std::size_t>(v)] = graph.degree(v);
    static_degree[static_cast<std::size_t>(v)] = graph.degree(v);
  }
  std::vector<bool> colored(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> excluded_in_pass(static_cast<std::size_t>(n), -1);
  std::int32_t colored_count = 0;
  std::int32_t pass = 0;

  while (colored_count < n) {
    core::Configuration config(net.link_count());
    while (true) {
      std::int32_t best = -1;
      double best_priority = -1.0;
      for (std::int32_t v = 0; v < n; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (colored[vi] || excluded_in_pass[vi] == pass) continue;
        const double p =
            reference_priority(rule, paths[vi].hops(), uncolored_degree[vi],
                               static_degree[vi]);
        if (p > best_priority) {
          best_priority = p;
          best = v;
        }
      }
      if (best < 0) break;
      const auto bi = static_cast<std::size_t>(best);
      colored[bi] = true;
      ++colored_count;
      EXPECT_TRUE(config.add(paths[bi])) << "reference WORK-set violation";
      for (const auto neighbor : graph.neighbors(best)) {
        const auto ni = static_cast<std::size_t>(neighbor);
        if (colored[ni]) continue;
        --uncolored_degree[ni];
        excluded_in_pass[ni] = pass;
      }
    }
    schedule.append(std::move(config));
    ++pass;
  }
  return schedule;
}

/// Serializes a schedule as the exact per-slot request sequences, so two
/// schedules compare byte-identical iff every slot contains the same
/// connections in the same order.
std::vector<std::vector<std::pair<topo::NodeId, topo::NodeId>>> flatten(
    const core::Schedule& schedule) {
  std::vector<std::vector<std::pair<topo::NodeId, topo::NodeId>>> slots;
  for (const auto& config : schedule.configurations()) {
    auto& slot = slots.emplace_back();
    for (const auto& path : config.paths())
      slot.emplace_back(path.request.src, path.request.dst);
  }
  return slots;
}

TEST(ColoringEquivalence, HeapSelectionMatchesLinearScanForAllRules) {
  const sched::ColoringPriority rules[] = {
      sched::ColoringPriority::kDegreeTimesLength,
      sched::ColoringPriority::kDegreeOnly,
      sched::ColoringPriority::kLengthOverDegree,
      sched::ColoringPriority::kInverseDegree,
      sched::ColoringPriority::kLengthOnly,
      sched::ColoringPriority::kStaticLengthOverDegree,
  };
  util::Rng rng(1996);
  for (const auto& topology : topology_zoo()) {
    for (const int conns : {5, 40, 120}) {
      const auto requests =
          patterns::random_pattern(topology.nodes, conns, rng);
      const auto paths = core::route_all(*topology.net, requests);
      for (const auto rule : rules) {
        const auto heap_based =
            sched::coloring_paths(*topology.net, paths, rule);
        const auto reference =
            reference_coloring(*topology.net, paths, rule);
        SCOPED_TRACE(topology.net->name() + ", " + std::to_string(conns) +
                     " connections, rule " +
                     std::to_string(static_cast<int>(rule)));
        EXPECT_EQ(flatten(heap_based), flatten(reference));
      }
    }
  }
}

}  // namespace
