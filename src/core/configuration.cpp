#include "core/configuration.hpp"

#include <cstdint>

namespace optdm::core {

namespace {

/// The pairwise scan: names the first conflicting pair in (i, j) order,
/// and throws on a universe mismatch the way `Path::conflicts_with` does.
std::optional<std::string> first_conflicting_pair(
    const std::vector<Path>& paths) {
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      if (paths[i].conflicts_with(paths[j])) {
        return "configuration conflict between (" +
               std::to_string(paths[i].request.src) + "->" +
               std::to_string(paths[i].request.dst) + ") and (" +
               std::to_string(paths[j].request.src) + "->" +
               std::to_string(paths[j].request.dst) + ")";
      }
    }
  }
  return std::nullopt;
}

}  // namespace

bool Configuration::add(Path path) {
  if (!accepts(path)) return false;
  used_.merge(path.occupancy);
  paths_.push_back(std::move(path));
  return true;
}

std::optional<std::string> Configuration::validate() const {
  // One pass over a fresh union of the paths' own occupancies (not
  // `used_`, which is what is being checked).  A valid configuration is
  // settled here in O(paths x words); only a clash or a universe mismatch
  // falls back to the pairwise scan, which words the verdict.
  if (paths_.empty()) return std::nullopt;
  const int universe = paths_.front().occupancy.universe_size();
  std::vector<std::uint64_t> seen(
      paths_.front().occupancy.words().size(), 0);
  for (const auto& path : paths_) {
    if (path.occupancy.universe_size() != universe)
      return first_conflicting_pair(paths_);
    const auto words = path.occupancy.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      if ((seen[w] & words[w]) != 0) return first_conflicting_pair(paths_);
      seen[w] |= words[w];
    }
  }
  return std::nullopt;
}

}  // namespace optdm::core
