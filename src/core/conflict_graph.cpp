#include "core/conflict_graph.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "util/parallel.hpp"

namespace optdm::core {

namespace {

void set_bit(std::uint64_t* row, std::int32_t v) {
  row[static_cast<std::size_t>(v) / 64] |=
      std::uint64_t{1} << (static_cast<std::size_t>(v) % 64);
}

bool test_bit(const std::uint64_t* row, std::int32_t v) {
  return (row[static_cast<std::size_t>(v) / 64] >>
          (static_cast<std::size_t>(v) % 64)) &
         1;
}

}  // namespace

ConflictGraph::ConflictGraph(std::span<const Path> paths)
    : n_(static_cast<int>(paths.size())) {
  row_words_ = (static_cast<std::size_t>(n_) + 63) / 64;
  matrix_.assign(static_cast<std::size_t>(n_) * row_words_, 0);
  if (n_ == 0) {
    offsets_.assign(1, 0);
    return;
  }

  const int link_count = paths[0].occupancy.universe_size();
  std::size_t total_link_refs = 0;
  for (const auto& path : paths) {
    if (path.occupancy.universe_size() != link_count)
      throw std::invalid_argument(
          "ConflictGraph: paths routed on different networks");
    total_link_refs += path.links.size();
  }

  // Inverted index: for every directed link, the ascending list of path
  // indices occupying it (counting sort over the paths' link vectors).
  std::vector<std::size_t> bucket_off(static_cast<std::size_t>(link_count) + 1,
                                      0);
  for (const auto& path : paths)
    for (const auto link : path.links)
      ++bucket_off[static_cast<std::size_t>(link) + 1];
  for (std::size_t l = 1; l < bucket_off.size(); ++l)
    bucket_off[l] += bucket_off[l - 1];
  std::vector<std::int32_t> occupants(total_link_refs);
  {
    std::vector<std::size_t> cursor(bucket_off.begin(), bucket_off.end() - 1);
    for (std::int32_t i = 0; i < n_; ++i)
      for (const auto link : paths[static_cast<std::size_t>(i)].links)
        occupants[cursor[static_cast<std::size_t>(link)]++] = i;
  }

  // Two paths conflict iff they co-occupy some link, so vertex i's
  // neighborhood is the union of the occupant lists of its own links.
  // Each vertex owns its matrix row exclusively, so rows are filled in
  // parallel with no synchronization; the row bitmap is also the dedupe
  // set for paths sharing several links.
  std::vector<std::size_t> row_degree(static_cast<std::size_t>(n_), 0);
  util::parallel_for_chunks(
      static_cast<std::size_t>(n_),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          std::uint64_t* row = matrix_.data() + i * row_words_;
          const auto self = static_cast<std::int32_t>(i);
          for (const auto link : paths[i].links) {
            const auto lo = bucket_off[static_cast<std::size_t>(link)];
            const auto hi = bucket_off[static_cast<std::size_t>(link) + 1];
            for (std::size_t k = lo; k < hi; ++k) {
              const auto other = occupants[k];
              if (other != self) set_bit(row, other);
            }
          }
          std::size_t degree = 0;
          for (std::size_t w = 0; w < row_words_; ++w)
            degree += static_cast<std::size_t>(std::popcount(row[w]));
          row_degree[i] = degree;
        }
      });

  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (std::int32_t v = 0; v < n_; ++v)
    offsets_[static_cast<std::size_t>(v) + 1] =
        offsets_[static_cast<std::size_t>(v)] +
        row_degree[static_cast<std::size_t>(v)];
  adj_.resize(offsets_.back());
  edges_ = adj_.size() / 2;

  // Emit each CSR row by scanning its bitmap words; bit order gives
  // ascending neighbor order.
  util::parallel_for_chunks(
      static_cast<std::size_t>(n_),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t* row = matrix_.data() + i * row_words_;
          std::int32_t* out = adj_.data() + offsets_[i];
          for (std::size_t w = 0; w < row_words_; ++w) {
            std::uint64_t word = row[w];
            while (word != 0) {
              const auto bit = std::countr_zero(word);
              *out++ = static_cast<std::int32_t>(w * 64 +
                                                 static_cast<std::size_t>(bit));
              word &= word - 1;
            }
          }
        }
      });
}

std::span<const std::int32_t> ConflictGraph::neighbors(std::int32_t v) const {
  if (v < 0 || v >= n_)
    throw std::out_of_range("ConflictGraph::neighbors: bad vertex");
  const auto begin = offsets_[static_cast<std::size_t>(v)];
  const auto end = offsets_[static_cast<std::size_t>(v) + 1];
  return {adj_.data() + begin, end - begin};
}

int ConflictGraph::degree(std::int32_t v) const {
  if (v < 0 || v >= n_)
    throw std::out_of_range("ConflictGraph::degree: bad vertex");
  return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                          offsets_[static_cast<std::size_t>(v)]);
}

bool ConflictGraph::adjacent(std::int32_t u, std::int32_t v) const {
  if (u < 0 || u >= n_ || v < 0 || v >= n_)
    throw std::out_of_range("ConflictGraph::adjacent: bad vertex");
  return test_bit(matrix_.data() + static_cast<std::size_t>(u) * row_words_,
                  v);
}

std::vector<std::int32_t> ConflictGraph::heuristic_clique() const {
  if (n_ == 0) return {};
  // Seed with the max-degree vertex, then repeatedly add the highest-degree
  // vertex adjacent to everything chosen so far.
  std::vector<std::int32_t> order(static_cast<std::size_t>(n_));
  for (std::int32_t v = 0; v < n_; ++v)
    order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [this](std::int32_t a, std::int32_t b) {
    const int da = degree(a);
    const int db = degree(b);
    return da != db ? da > db : a < b;
  });

  std::vector<std::int32_t> clique;
  for (const auto v : order) {
    const bool fits = std::all_of(
        clique.begin(), clique.end(),
        [this, v](std::int32_t member) { return adjacent(v, member); });
    if (fits) clique.push_back(v);
  }
  return clique;
}

}  // namespace optdm::core
