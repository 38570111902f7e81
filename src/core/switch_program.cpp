#include "core/switch_program.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>

namespace optdm::core {

namespace {

std::string port_name(const topo::Network& net, topo::LinkId id) {
  const auto& link = net.link(id);
  switch (link.kind) {
    case topo::LinkKind::kInjection:
      return "inj";
    case topo::LinkKind::kEjection:
      return "ej";
    case topo::LinkKind::kNetwork:
      break;
  }
  if (link.dim >= 0) {
    const char axis = link.dim == 0 ? 'x' : link.dim == 1 ? 'y' : 'z';
    return std::string{axis, link.dir > 0 ? '+' : '-'};
  }
  std::string name = "L";
  name += std::to_string(id);
  return name;
}

}  // namespace

SwitchProgram::SwitchProgram(const topo::Network& net,
                             const Schedule& schedule)
    : slots_(schedule.degree()) {
  // Switch vertex ids can exceed the node count in multistage topologies;
  // size by the largest vertex referenced by any link.
  for (const auto& link : net.links())
    switches_ = std::max({switches_, link.from + 1, link.to + 1});
  states_.resize(static_cast<std::size_t>(switches_) *
                 static_cast<std::size_t>(std::max(slots_, 1)));

  for (int slot = 0; slot < slots_; ++slot) {
    for (const auto& path : schedule.configuration(slot).paths()) {
      for (std::size_t i = 0; i + 1 < path.links.size(); ++i) {
        const auto in = path.links[i];
        const auto out = path.links[i + 1];
        const topo::NodeId sw = net.link(in).to;
        if (net.link(out).from != sw)
          throw std::logic_error(
              "SwitchProgram: discontiguous path in schedule");
        mutable_state(sw, slot).push_back(CrossbarSetting{in, out});
      }
    }
  }
}

const std::vector<CrossbarSetting>& SwitchProgram::state(topo::NodeId sw,
                                                         int slot) const {
  if (sw < 0 || sw >= switches_ || slot < 0 || slot >= slots_)
    throw std::out_of_range("SwitchProgram::state: bad switch/slot");
  return states_[static_cast<std::size_t>(sw) *
                     static_cast<std::size_t>(slots_) +
                 static_cast<std::size_t>(slot)];
}

std::vector<CrossbarSetting>& SwitchProgram::mutable_state(topo::NodeId sw,
                                                           int slot) {
  return states_[static_cast<std::size_t>(sw) *
                     static_cast<std::size_t>(slots_) +
                 static_cast<std::size_t>(slot)];
}

std::size_t SwitchProgram::setting_count() const noexcept {
  std::size_t total = 0;
  for (const auto& state : states_) total += state.size();
  return total;
}

std::optional<std::string> SwitchProgram::verify(
    const topo::Network& net, const Schedule& schedule) const {
  if (schedule.degree() != slots_)
    return "slot count does not match the schedule";

  for (int slot = 0; slot < slots_; ++slot) {
    // (a) every switch state is a realizable crossbar.
    std::map<topo::LinkId, topo::LinkId> next;
    std::set<topo::LinkId> outs;
    for (topo::NodeId sw = 0; sw < switches_; ++sw) {
      for (const auto& setting : state(sw, slot)) {
        if (net.link(setting.in_link).to != sw ||
            net.link(setting.out_link).from != sw)
          return "setting references links not attached to its switch";
        if (!next.emplace(setting.in_link, setting.out_link).second)
          return "in-port used twice in switch " + std::to_string(sw) +
                 " slot " + std::to_string(slot);
        if (!outs.insert(setting.out_link).second)
          return "out-port used twice in switch " + std::to_string(sw) +
                 " slot " + std::to_string(slot);
      }
    }

    // (b) walking from each scheduled injection reaches the destination.
    std::size_t used = 0;
    for (const auto& path : schedule.configuration(slot).paths()) {
      topo::LinkId at = net.injection_link(path.request.src);
      int steps = 0;
      while (net.link(at).kind != topo::LinkKind::kEjection) {
        const auto it = next.find(at);
        if (it == next.end())
          return "walk from " + std::to_string(path.request.src) +
                 " dead-ends in slot " + std::to_string(slot);
        at = it->second;
        ++used;
        if (++steps > net.link_count())
          return "walk from " + std::to_string(path.request.src) +
                 " loops in slot " + std::to_string(slot);
      }
      if (net.link(at).to != path.request.dst)
        return "walk from " + std::to_string(path.request.src) +
               " ends at the wrong destination in slot " +
               std::to_string(slot);
    }

    // (c) no stray settings beyond the scheduled walks.
    if (used != next.size())
      return "slot " + std::to_string(slot) + " contains " +
             std::to_string(next.size() - used) + " stray settings";
  }
  return std::nullopt;
}

void SwitchProgram::print(const topo::Network& net, std::ostream& os) const {
  for (topo::NodeId sw = 0; sw < switches_; ++sw) {
    for (int slot = 0; slot < slots_; ++slot) {
      const auto& settings = state(sw, slot);
      if (settings.empty()) continue;
      os << "switch " << sw << " slot " << slot << ":";
      for (const auto& setting : settings)
        os << " [" << port_name(net, setting.in_link) << " -> "
           << port_name(net, setting.out_link) << "]";
      os << '\n';
    }
  }
}

}  // namespace optdm::core
