#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/sweep.hpp"
#include "core/request.hpp"
#include "svc/api.hpp"
#include "util/rng.hpp"

/// \file inputs.hpp
/// Seeded inputs of the four workloads.  Everything here is a pure
/// function of the workload seed (and an index), so a run's inputs are
/// fixed by `--seed` alone; the daemon only ever sees the generated
/// requests.

namespace optdm::bench {

/// Connection counts of the paper's Table 1 rows (8x8 torus).
inline constexpr std::array<int, 11> kTable1Rows = {
    100, 400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600, 4000};

/// Arrival rate of mixed_traffic.  The two daemon workers are about a
/// third busy at this rate (the traced run's svc.queue.busy_frac on a
/// 4-core AMD EPYC): warm hits still queue behind compiles and simulates,
/// but latency swings less with the machine's background load than at half
/// load (p50 spread over ten seeds: 14% at 480/s, 6-9% at 300/s).
inline constexpr double kMixedRatePerS = 300.0;

/// Outputs entering the digest and degree_over_lb.  A run always
/// completes these, however short its window, so the digest is a function
/// of the seed alone.
/// cold_compile: the first cold patterns.
inline constexpr std::uint64_t kColdPrefix = 128;
/// mixed_traffic: the first cold compiles and the first simulates.
inline constexpr std::uint64_t kMixedPrefix = 8;
/// sweep: the first operations (every phase once).
inline constexpr std::size_t kSweepPrefix = 14;

/// One compile input: the substrate and the pattern.
struct PatternInput {
  std::string topology;
  int nodes = 64;
  core::RequestSet pattern;
};

/// The service requests of one input (the other fields at their defaults:
/// the combined scheduler, the shared cache, 4-slot messages and K in
/// {1, 2, 5, 10} for simulates).
svc::CompileRequest compile_request(const PatternInput& input);
svc::SimulateRequest simulate_request(const PatternInput& input);

/// Independent generator for item `index` of input stream `stream`.
util::Rng stream_rng(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index);

/// warm_hits: 64 patterns on torus:8x8, 16 each of 64 / 400 / 1200 / 4032
/// connections (4032 = a shuffled all-to-all), sizes interleaved.
std::vector<PatternInput> warm_hits_set(std::uint64_t seed);

/// cold_compile: pattern `index` on torus:8x8, its size the Table 1 row
/// `index mod 11` (every 11 consecutive patterns cover every row once).
PatternInput cold_pattern(std::uint64_t seed, std::uint64_t index);

/// Size of mixed_traffic's warm set.
inline constexpr std::uint64_t kMixedWarmSet = 28;

/// mixed_traffic's warm set: 4 patterns in each of 7 classes, torus:8x8
/// with 64 / 400 / 1200 / 4032 connections and torus:16x16 with 256 /
/// 1024 / 4096.  With an odd class count the latency median falls inside
/// a class, not on the boundary between two.
std::vector<PatternInput> mixed_warm_set(std::uint64_t seed);

/// mixed_traffic's cold pattern `index`: even indices on torus:8x8 (Table
/// 1 rows), odd ones on torus:16x16.
PatternInput mixed_cold_pattern(std::uint64_t seed, std::uint64_t index);

/// One open-loop arrival of mixed_traffic.
struct Arrival {
  enum class Kind { kWarm, kCold, kSimulate };
  /// Seconds after the window opens at which the request is due.
  double due_s = 0;
  Kind kind = Kind::kWarm;
  /// Warm: index into the warm set; cold: cold-pattern index; simulate:
  /// index into the warm set (the compile half is a memory hit).
  std::uint64_t index = 0;
};

/// The arrivals of a `seconds`-long window at `rate`: exactly
/// rate x seconds Poisson arrivals (uniform order statistics; at least
/// the 20 x kMixedPrefix that hold the digest prefix), 90% warm, 5% cold,
/// 5% simulate — exact per block of 20, order shuffled.
std::vector<Arrival> mixed_arrivals(std::uint64_t seed, double rate,
                                    double seconds);

/// The order in which a closed-loop connection walks a set of `n`
/// patterns (a seeded permutation).
std::vector<std::size_t> walk_order(std::uint64_t seed, std::size_t n);

/// The sweep's phases: Table 5's GS (64/128/256), TSCF and P3M 1-5 at
/// 32^3 and 64^3, for 64 PEs on torus:8x8.
std::vector<apps::CommPhase> table5_phases();

/// Sweep operations before the inputs repeat: every phase with each of
/// the four seed pairs.
inline constexpr std::size_t kSweepCycle = 14 * 4;

/// The grid of sweep operation `op`: phase `op mod 14`, K in {1,2,5,10},
/// and seed pair `(op / 14) mod 4` of the workload's eight seeds.
apps::SweepGrid sweep_grid(const std::vector<apps::CommPhase>& phases,
                           std::uint64_t seed, std::size_t op);

}  // namespace optdm::bench
