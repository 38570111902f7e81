#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/path.hpp"

/// \file conflict_graph.hpp
/// The conflict graph of a routed pattern: one vertex per path, an edge
/// between every pair of paths that share a directed link.  The paper's
/// coloring algorithm (Section 3.2) colors this graph; the exact solver and
/// the clique lower bound also operate on it.

namespace optdm::core {

/// Immutable conflict graph over a fixed path list.
class ConflictGraph {
 public:
  /// Builds the graph from a link→paths inverted index: candidate edges
  /// are generated only from per-link occupant lists, so the cost is
  /// O(Σ_link occupants(link)²) instead of the all-pairs
  /// O(n² · words) LinkSet intersection.  Per-vertex rows are discovered
  /// independently (and in parallel), deduplicated through the adjacency
  /// bit-matrix; the result is exactly the all-pairs definition (checked
  /// pair by pair in tests/test_conflict_graph_equivalence.cpp).
  /// Throws `std::invalid_argument` if the paths span different networks.
  explicit ConflictGraph(std::span<const Path> paths);

  int vertex_count() const noexcept { return n_; }

  /// Neighbors of vertex `v` (indices into the original path span),
  /// sorted ascending.
  std::span<const std::int32_t> neighbors(std::int32_t v) const;

  /// Degree of vertex `v`.
  int degree(std::int32_t v) const;

  bool adjacent(std::int32_t u, std::int32_t v) const;

  std::size_t edge_count() const noexcept { return edges_; }

  /// Greedy heuristic clique (a lower bound on the chromatic number and
  /// hence on the multiplexing degree): grows a clique from the
  /// highest-degree vertex.
  std::vector<std::int32_t> heuristic_clique() const;

 private:
  int n_ = 0;
  std::size_t edges_ = 0;
  /// CSR adjacency.
  std::vector<std::int32_t> adj_;
  std::vector<std::size_t> offsets_;
  /// Dense adjacency bit-matrix (row-major, n bits per row rounded up to
  /// words) for O(1) adjacency tests; n <= ~16k in all experiments, so
  /// this stays tens of MB at the top end.
  std::vector<std::uint64_t> matrix_;
  std::size_t row_words_ = 0;
};

}  // namespace optdm::core
