#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"

/// \file tracer.hpp
/// Spans recorded by the traced run around the benchmark's own calls into
/// each layer (nothing under src/ is instrumented).  A span has a layer
/// name, start, end, parent and request id; spans are kept in memory and
/// written at exit as a Chrome trace plus `layers.json`.
///
/// Every thread records into its own buffer, so recording takes no lock.
/// A layer's self time is its span's duration minus the part its child
/// spans cover.  With recording off, a span costs one relaxed load — the
/// traced replay runs once each way to measure the tracing overhead.

namespace optdm::bench {

/// Per-layer aggregate over every recorded span of one name.
struct LayerStats {
  std::int64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  /// Per-call durations (ns), for percentiles.
  std::vector<double> durations_ns;
  /// Samples of a per-call quantity (`Tracer::value`).
  std::vector<double> values;
};

class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled();
  /// Request id stamped on the calling thread's following spans.
  static void set_request(std::uint64_t request);

  /// RAII span on the calling thread, nested under its innermost open span.
  class Span {
   public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Start time, ns since the tracer's epoch.
    std::int64_t start_ns() const noexcept { return start_; }

   private:
    bool active_ = false;
    std::int64_t start_ = 0;
  };

  /// Records a finished child of the innermost open span with explicit
  /// times (phase timings a call returns).  `covers` false keeps it out of
  /// the parent's covered time — for a branch that ran concurrently with
  /// a sibling already counted; `cover` then adds the extra coverage.
  static void child(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, bool covers = true);
  static void cover(std::int64_t ns);
  /// A per-call sample of a non-time quantity (edges, retries, ...).
  static void value(const char* name, double sample);

  static std::int64_t now_ns();

  /// Merged aggregates of every thread, by layer name.
  static std::map<std::string, LayerStats> layers();
  /// Writes `trace.json` (Chrome trace_event) and `layers.json` to `dir`.
  static void write(const std::string& dir);
  /// Drops everything recorded so far.
  static void reset();
};

}  // namespace optdm::bench
