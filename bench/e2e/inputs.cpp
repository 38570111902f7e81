#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "apps/workloads.hpp"
#include "patterns/random.hpp"

namespace optdm::bench {

namespace {

enum Stream : std::uint64_t {
  kWarmHitsSet = 1,
  kColdPattern,
  kMixedWarm,
  kMixedCold,
  kMixedArrivals,
  kWalk,
  kSweepSeeds,
};

PatternInput make_input(const char* topology, int nodes, int connections,
                        util::Rng rng) {
  return PatternInput{topology, nodes,
                      patterns::random_pattern(nodes, connections, rng)};
}

}  // namespace

svc::CompileRequest compile_request(const PatternInput& input) {
  svc::CompileRequest request;
  request.topology = input.topology;
  request.pattern = input.pattern;
  return request;
}

svc::SimulateRequest simulate_request(const PatternInput& input) {
  svc::SimulateRequest request;
  request.topology = input.topology;
  request.pattern = input.pattern;
  return request;
}

util::Rng stream_rng(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  return util::Rng(seed * 0x9E3779B97F4A7C15ULL +
                   stream * 0xD1B54A32D192ED03ULL + index);
}

std::vector<PatternInput> warm_hits_set(std::uint64_t seed) {
  constexpr std::array<int, 4> kSizes = {64, 400, 1200, 4032};
  std::vector<PatternInput> set;
  for (std::uint64_t i = 0; i < 64; ++i)
    set.push_back(make_input("torus:8x8", 64, kSizes[i % 4],
                             stream_rng(seed, kWarmHitsSet, i)));
  return set;
}

PatternInput cold_pattern(std::uint64_t seed, std::uint64_t index) {
  return make_input("torus:8x8", 64, kTable1Rows[index % kTable1Rows.size()],
                    stream_rng(seed, kColdPattern, index));
}

std::vector<PatternInput> mixed_warm_set(std::uint64_t seed) {
  struct Class {
    const char* topology;
    int nodes;
    int connections;
  };
  constexpr std::array<Class, 7> kClasses = {{{"torus:8x8", 64, 64},
                                              {"torus:16x16", 256, 256},
                                              {"torus:8x8", 64, 400},
                                              {"torus:16x16", 256, 1024},
                                              {"torus:8x8", 64, 1200},
                                              {"torus:16x16", 256, 4096},
                                              {"torus:8x8", 64, 4032}}};
  std::vector<PatternInput> set;
  for (std::uint64_t i = 0; i < kMixedWarmSet; ++i) {
    const Class& c = kClasses[i % kClasses.size()];
    set.push_back(make_input(c.topology, c.nodes, c.connections,
                             stream_rng(seed, kMixedWarm, i)));
  }
  return set;
}

PatternInput mixed_cold_pattern(std::uint64_t seed, std::uint64_t index) {
  constexpr std::array<int, 4> kLarge = {256, 1024, 2048, 4096};
  const auto rng = stream_rng(seed, kMixedCold, index);
  if (index % 2 == 0)
    return make_input("torus:8x8", 64,
                      kTable1Rows[(index / 2) % kTable1Rows.size()], rng);
  return make_input("torus:16x16", 256, kLarge[(index / 2) % 4], rng);
}

std::vector<Arrival> mixed_arrivals(std::uint64_t seed, double rate,
                                    double seconds) {
  auto rng = stream_rng(seed, kMixedArrivals, 0);
  // However short the window, it holds the digest prefix.
  const auto n = std::max(static_cast<std::size_t>(std::llround(rate * seconds)),
                          static_cast<std::size_t>(20 * kMixedPrefix));
  std::vector<Arrival> arrivals(n);
  for (auto& a : arrivals) a.due_s = rng.uniform_real() * seconds;
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.due_s < b.due_s; });

  std::uint64_t cold = 0;
  std::uint64_t sims = 0;
  const auto sim_order = walk_order(seed + 1, kMixedWarmSet);
  for (std::size_t block = 0; block < n; block += 20) {
    std::array<Arrival::Kind, 20> kinds{};
    kinds.fill(Arrival::Kind::kWarm);
    kinds[0] = Arrival::Kind::kCold;
    kinds[1] = Arrival::Kind::kSimulate;
    rng.shuffle(kinds);
    for (std::size_t j = 0; j < 20 && block + j < n; ++j) {
      Arrival& a = arrivals[block + j];
      a.kind = kinds[j];
      switch (a.kind) {
        case Arrival::Kind::kWarm:
          a.index = static_cast<std::uint64_t>(rng.uniform(0, kMixedWarmSet - 1));
          break;
        case Arrival::Kind::kCold:
          a.index = cold++;
          break;
        case Arrival::Kind::kSimulate:
          a.index = sim_order[sims++ % sim_order.size()];
          break;
      }
    }
  }
  return arrivals;
}

std::vector<std::size_t> walk_order(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  auto rng = stream_rng(seed, kWalk, 0);
  rng.shuffle(order);
  return order;
}

std::vector<apps::CommPhase> table5_phases() {
  std::vector<apps::CommPhase> phases;
  for (const int grid : {64, 128, 256}) phases.push_back(apps::gs_phase(grid, 64));
  phases.push_back(apps::tscf_phase(64));
  for (const int mesh : {32, 64})
    for (auto& phase : apps::p3m_phases(mesh)) phases.push_back(std::move(phase));
  return phases;
}

apps::SweepGrid sweep_grid(const std::vector<apps::CommPhase>& phases,
                           std::uint64_t seed, std::size_t op) {
  apps::SweepGrid grid;
  grid.phases.push_back(phases[op % phases.size()]);
  for (const int k : {1, 2, 5, 10}) {
    apps::DynamicVariant variant;
    variant.label = "K=" + std::to_string(k);
    variant.params.multiplexing_degree = k;
    grid.dynamic.push_back(std::move(variant));
  }
  const std::uint64_t pair = (op / phases.size()) % 4;
  for (std::uint64_t j = 2 * pair; j < 2 * pair + 2; ++j)
    grid.seeds.push_back(stream_rng(seed, kSweepSeeds, j).next_u64());
  return grid;
}

}  // namespace optdm::bench
