#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "apps/sweep.hpp"
#include "core/request.hpp"
#include "svc/api.hpp"
#include "topo/torus.hpp"

/// \file bench_util.hpp
/// Shared plumbing of the end-to-end benchmark: run configuration, the
/// metric printer with its honesty guards, the output digest, the
/// independent schedule checker and the machine stamp.

namespace optdm::bench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Daemon workers and library threads every workload runs with.
inline constexpr int kWorkers = 2;
inline constexpr int kLibraryThreads = 2;
/// Client connections of the service workloads.
inline constexpr int kConnections = 2;

/// One benchmark invocation.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 0;
  /// Short run with every check on (ctest).
  bool smoke = false;
  /// Output directory of the traced run; empty = untraced run.
  std::string trace_dir;
  /// Directory holding optdm_served.
  std::string bin_dir;
  /// Scratch directory of the traced run's disk-tier samples.
  std::string work_dir;
  /// Directory of the expected `<workload>.seed1.digest` files.
  std::string expected_dir;
  /// Rewrite the expected digest instead of comparing against it (after a
  /// change that alters the outputs on purpose).
  bool write_expected = false;

  /// Set-up repetitions whose median is `setup_s`.
  int setup_reps(int full) const { return smoke ? 1 : full; }
};

/// Collects a run's metrics and check results and prints them as
/// `metric <name> <value> <unit> <samples>` lines.  A failed check is
/// printed at once as `check-failed <what>` (the first 20 of them); `ok()`
/// is false afterwards.
class Report {
 public:
  explicit Report(std::ostream& out) : out_(out) {}

  void metric(std::string_view name, double value, std::string_view unit,
              std::size_t samples);
  /// A workload-specific number outside BENCHMARK.json's metric set.
  void extra(std::string_view name, double value, std::string_view unit,
             std::size_t samples);
  /// The `p`-th percentile of `samples` as a metric, its line ending in
  /// `p<p>` — printed only when at least ten samples lie beyond it;
  /// otherwise `nan` with the count, which run.py treats as a missing
  /// metric (smoke runs accept it).
  void percentile(std::string_view name, const std::vector<double>& samples,
                  double p, std::string_view unit, bool is_extra = false);
  /// A per-layer metric of the traced run, with the end-to-end metrics it
  /// should move (`metric@workload,...`).
  void per_layer(std::string_view name, double value, std::string_view unit,
                 std::size_t count, std::string_view moves);

  void check(bool ok, const std::string& what);
  bool ok() const noexcept { return failures_ == 0; }

  /// Operations attempted / failed (requests, or sweep cells).
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints `schedule_digest`, the FNV-1a hash of `outputs` (the
  /// workload's deterministic output prefix, concatenated), and compares
  /// it to the expected digest for seed 1.
  void digest(const RunConfig& config, std::string_view outputs);

  std::ostream& out() noexcept { return out_; }

 private:
  std::ostream& out_;
  int failures_ = 0;
};

double mean_of(const std::vector<double>& samples);
/// Whether the `p`-th percentile of `n` samples has >= 10 samples above it.
bool percentile_supported(std::size_t n, double p);

/// The network of a workload topology spec (torus:8x8 or torus:16x16).
const topo::TorusNetwork& network_for(const std::string& topology);

/// Independent check of one compiled schedule: reloads `text` with
/// io::read_schedule against `net`, validates it against `pattern`, and
/// checks the degree against the route-independent lower bound (max
/// fan-out / fan-in: injection and ejection links belong to every route),
/// which the reported lower bound must also reach.  Returns an empty
/// string when valid.
///
/// The reported lower bound is computed on the default routes, so a
/// schedule on ordered-AAPC routes can undercut it (seen on torus:16x16);
/// `below_reported_bound` counts those instead of failing them.
std::string check_schedule(const topo::Network& net,
                           const core::RequestSet& pattern,
                           const std::string& text, int degree,
                           int lower_bound, int* below_reported_bound);

/// A simulate response's results as one comparable line; `ok` says
/// whether every row completed.
std::string simulate_line(const svc::SimulateResponse& response, bool& ok);

/// A sweep result's cells as one comparable line, in grid order.
std::string cells_line(const apps::SweepResult& result);

/// Logical CPUs online.
int nproc();
/// The `machine ...` stamp line: nproc, CPU model, kernel, compiler, build.
void print_machine(std::ostream& out);
/// Peak RSS (VmHWM) of a process in MiB; `pid` 0 = this process.
double peak_rss_mib(int pid = 0);
/// Max RSS of this process's waited-for children (getrusage), MiB.
double children_peak_rss_mib();

}  // namespace optdm::bench
