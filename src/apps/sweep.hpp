#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/pipeline.hpp"
#include "apps/recovery.hpp"
#include "apps/workloads.hpp"
#include "sched/reconfig.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"
#include "sim/faults.hpp"

/// \file sweep.hpp
/// `SweepRunner` — the parallel experiment-sweep engine.
///
/// Every experiment driver in this repo walks the same shape of grid:
/// {communication phase} x {fault level} x {dynamic-protocol variant}
/// x {seed}, simulating each cell independently and tabulating the
/// results.  The cells share nothing at runtime (the simulators are pure
/// functions of their inputs), so the sweep is embarrassingly parallel —
/// but only if the expansion is careful about the two stateful stages:
/// random timeline generation and the schedule cache.
///
/// **Determinism contract.**  `run` produces byte-identical results at
/// any `OPTDM_THREADS`, including 1:
///
///  1. fault timelines are drawn serially, one per fault level, in grid
///     order (all RNG happens before any parallelism);
///  2. the compiled side of every phase is compiled serially in phase
///     order through the `Pipeline` schedule cache, so cache hit/miss
///     provenance is a function of the grid alone;
///  3. the cells — now pure — are fanned across `util::parallel_for`,
///     each writing only its own preallocated result slot (the pool's
///     contiguous-chunk contract), and aggregation happens on the caller
///     in grid order.
///
/// The expansion order is fixed: compiled cells are phase-major,
/// fault-minor; dynamic cells nest as (phase, fault, variant, seed), the
/// innermost index fastest.  `compiled_cell` / `dynamic_cell` index into
/// that layout.

namespace optdm::apps {

/// One dynamic-protocol configuration of the grid (e.g. "K=5").
struct DynamicVariant {
  std::string label;
  sim::DynamicParams params;
};

/// One named fault level; an all-zero spec is the healthy fabric.
struct FaultLevel {
  std::string name;
  sim::FaultSpec spec;
};

/// One point of the reconfiguration-cost axis (e.g. "R=4/overlap").
struct ReconfigLevel {
  std::string label;
  sched::ReconfigOptions options;
};

/// The declarative grid.  Axes may be empty: no fault levels means one
/// healthy level, no variants means a compiled-only sweep, no seeds means
/// one run per variant at the variant's own `params.seed`, no reconfig
/// levels means one R=0 level (free reconfiguration, the paper's model).
struct SweepGrid {
  std::vector<CommPhase> phases;
  std::vector<FaultLevel> faults;
  std::vector<DynamicVariant> dynamic;
  /// Seed override axis: when non-empty, every variant runs once per
  /// seed with `params.seed` replaced.
  std::vector<std::uint64_t> seeds;
  /// Reconfiguration-cost axis for the *compiled* cells: every (phase,
  /// fault) pair runs once per level, paying the level's transition
  /// stalls (`sched::plan_reconfiguration` of the phase's schedule).  The
  /// schedule itself is compiled once per phase — R changes execution
  /// cost, not the configuration set.  The dynamic side models R through
  /// `DynamicParams::reconfig_slots` on its own variant axis.
  std::vector<ReconfigLevel> reconfig;
};

/// Engine configuration.
struct SweepOptions {
  /// Compiled-side pipeline (scheduler choice, schedule cache).
  PipelineOptions pipeline;
  /// Simulate the compiled side of every (phase, fault) pair.
  bool run_compiled = true;
  /// Parameters of the compiled-side simulation.
  sim::CompiledParams compiled;
  /// Run the detect-and-recompile recovery loop for the compiled side
  /// instead of the one-shot analytic model (fault sweeps).  Round 1
  /// compiles through the sweep's pipeline and its cache; later rounds
  /// compile against the live fault set and bypass the cache.
  bool recovery = false;
  RecoveryParams recovery_params;
};

/// Compiled side of one (phase, fault, reconfig) triple.
struct CompiledCell {
  std::size_t phase = 0;
  std::size_t fault = 0;
  /// Index into the expanded reconfig axis (0 when the grid has none).
  std::size_t reconfig = 0;
  /// Multiplexing degree of the (round-1) schedule.
  int degree = 0;
  /// Whether the phase's compile came out of the schedule cache.
  bool cache_hit = false;
  /// Set only by `run_sharded` under `ShardExhaustion::kSalvage`: the
  /// owning shard exhausted its retries and this cell was never computed.
  /// Coordinates are still filled in; `result` is default-constructed.
  bool missing = false;
  /// One-shot simulation result (empty when `recovery` ran instead).
  sim::CompiledResult result;
  std::optional<RecoveryResult> recovery;
};

/// One dynamic-protocol run.
struct DynamicCell {
  std::size_t phase = 0;
  std::size_t fault = 0;
  std::size_t variant = 0;
  std::size_t seed = 0;
  /// Salvage marker — see `CompiledCell::missing`.
  bool missing = false;
  sim::DynamicResult result;
};

/// Supervision counters of one `run_sharded` call (all zero for `run` and
/// for an incident-free sharded sweep).  Mirrored into `SchedCounters`
/// (`shard_retries` etc.) by report-emitting drivers.
struct ShardSupervision {
  /// Worker attempts beyond each shard's first (== total re-forks).
  std::int64_t retries = 0;
  /// Re-forks by cause: worker died (signal / nonzero exit), worker
  /// missed its progress deadline (SIGKILLed), worker stream failed
  /// validation (garbled / torn).
  std::int64_t restarts_crashed = 0;
  std::int64_t restarts_hung = 0;
  std::int64_t restarts_corrupt = 0;
  /// Cells marked `missing` because their shard exhausted its retries
  /// under `ShardExhaustion::kSalvage`.
  std::int64_t salvaged_cells = 0;
};

struct SweepResult {
  /// One timeline per fault level, in level order.
  std::vector<sim::FaultTimeline> timelines;
  /// Per-phase compilations (empty when `run_compiled` was false or the
  /// recovery loop compiled internally); `[p].phase.schedule` is the
  /// schedule the compiled cells of phase `p` ran.
  std::vector<PhaseCompilation> compilations;
  /// Nested (phase, fault, reconfig), innermost fastest; empty when
  /// `run_compiled` was false.  With no reconfig axis this is the
  /// classic phase-major, fault-minor layout.
  std::vector<CompiledCell> compiled;
  /// Nested (phase, fault, variant, seed), innermost fastest.
  std::vector<DynamicCell> dynamic;

  /// Axis extents of the expanded grid (after empty-axis defaults).
  std::size_t fault_count = 0;
  std::size_t variant_count = 0;
  std::size_t seed_count = 0;
  std::size_t reconfig_count = 0;

  /// Shard-supervisor incident counters (all zero for `run`).
  ShardSupervision supervision;

  const CompiledCell& compiled_cell(std::size_t phase, std::size_t fault = 0,
                                    std::size_t reconfig = 0) const {
    return compiled.at((phase * fault_count + fault) * reconfig_count +
                       reconfig);
  }
  const DynamicCell& dynamic_cell(std::size_t phase, std::size_t fault,
                                  std::size_t variant,
                                  std::size_t seed = 0) const {
    return dynamic.at(
        ((phase * fault_count + fault) * variant_count + variant) *
            seed_count +
        seed);
  }
};

/// What the supervisor does with a shard whose retry budget is spent.
enum class ShardExhaustion {
  /// Kill every remaining worker and throw `util::Failure`
  /// (`kShardExhausted`) — nothing is returned.
  kFail,
  /// Return the merged results anyway, with the dead shard's cells
  /// explicitly marked `missing` and counted in
  /// `SweepResult::supervision.salvaged_cells`.
  kSalvage,
};

/// Per-shard supervision policy for `SweepRunner::run_sharded`.  Retries
/// are always safe: cells are pure, deterministic functions of inputs
/// staged before the first fork, so a re-forked worker recomputes
/// byte-identical results.
struct ShardPolicy {
  /// Re-fork attempts per shard beyond the first (0 = fail-stop, the
  /// pre-supervision behavior).
  int max_retries = 2;
  /// Progress deadline, milliseconds: a worker that emits no frame on its
  /// pipe for this long is declared hung, SIGKILLed, and re-forked.
  /// Workers heartbeat after every cell, so only a genuinely stuck (or
  /// pathologically slow) *single cell* can trip this.  0 disables hang
  /// detection — only worker death is then supervised.
  std::int64_t deadline_ms = 0;
  /// Capped exponential backoff before re-forking: attempt `a` (1-based
  /// retry counter) waits `min(backoff_ms << (a-1), max_backoff_ms)`.
  std::int64_t backoff_ms = 5;
  std::int64_t max_backoff_ms = 200;
  ShardExhaustion on_exhaustion = ShardExhaustion::kFail;
};

/// Process-level sharding configuration for `SweepRunner::run_sharded`.
struct ShardOptions {
  /// Worker processes to fork; each owns a contiguous range of cells.
  int shards = 1;
  ShardPolicy policy;
};

/// Expands and runs sweep grids against one network.  Construction
/// resolves the pipeline; `run` may be called repeatedly — later sweeps
/// reuse the schedule cache warmed by earlier ones.
class SweepRunner {
 public:
  explicit SweepRunner(const topo::TorusNetwork& net,
                       SweepOptions options = {});

  SweepResult run(const SweepGrid& grid);

  /// `run`, with stage 3 fanned across `shards` forked worker processes
  /// instead of (only) pool threads, under a supervision loop.  Stages
  /// 1–2 still run here in the parent — timelines, compilations, and
  /// schedule-cache hit/miss provenance are decided before the first
  /// fork, so they are a function of the grid alone — then each worker
  /// simulates a contiguous range of cells (reusing the parent's
  /// compilations via fork's copy-on-write image, and the on-disk
  /// ScheduleCache tier for anything beyond) and streams progress
  /// heartbeats plus its cells back over a pipe.
  ///
  /// **Supervision.**  The parent polls every worker pipe concurrently.
  /// A worker that dies (signal or nonzero exit), misses its
  /// `ShardPolicy::deadline_ms` progress deadline (it is then SIGKILLed),
  /// or returns a stream that fails validation is re-forked after a
  /// capped exponential backoff, up to `ShardPolicy::max_retries` times —
  /// safe because cells are pure and deterministic.  A shard that
  /// exhausts its budget either aborts the sweep (`ShardExhaustion::
  /// kFail`: every remaining worker is killed and `util::Failure` with
  /// `kShardExhausted` is thrown) or is salvaged (`kSalvage`: its cells
  /// come back `missing`, counted in `supervision.salvaged_cells`).
  /// Incidents are tallied in `SweepResult::supervision`.
  ///
  /// A shard's cells are merged only from a complete, validated stream,
  /// so the headline invariant holds: merged results are byte-identical
  /// to `run` at any shard count under any kill/hang schedule the retry
  /// budget absorbs.  The `OPTDM_CHAOS` env hook (see sweep.cpp) injects
  /// seeded kill/hang/garble faults for tests and CI.
  ///
  /// Incompatible with `SweepOptions::recovery` (recovery results carry
  /// live compiler state that does not serialize); throws `util::Failure`
  /// (`kInvalidConfig`) for that, a non-positive shard count, or a
  /// malformed `OPTDM_CHAOS` spec.
  SweepResult run_sharded(const SweepGrid& grid, const ShardOptions& shard);

  Pipeline& pipeline() noexcept { return pipeline_; }
  const topo::TorusNetwork& network() const noexcept { return *net_; }
  const SweepOptions& options() const noexcept { return options_; }

 private:
  /// Stages 1–2 plus grid expansion: timelines, compilations, axis
  /// extents, and default-constructed cell slots.
  SweepResult prepare(const SweepGrid& grid);

  /// Stage 3 over the flat cell range `[begin, end)` (compiled cells
  /// first, then dynamic cells), writing each cell's own slot in `out`.
  void run_cells(const SweepGrid& grid, SweepResult& out, std::size_t begin,
                 std::size_t end);

  const topo::TorusNetwork* net_;
  SweepOptions options_;
  Pipeline pipeline_;
};

/// Lower-level escape hatch for drivers whose cells don't fit the
/// phase/fault/variant grid (e.g. per-trial random patterns with jointly
/// drawn seeds): one fully specified dynamic run per entry.
struct DynamicRun {
  /// Viewed, not owned — the caller's storage must outlive the batch.
  std::span<const sim::Message> messages;
  sim::DynamicParams params;
  /// Optional fault timeline (null = healthy fabric).
  const sim::FaultTimeline* faults = nullptr;
};

/// Simulates every run on the shared pool; results in input order,
/// byte-identical at any thread count (each run is a pure function).
std::vector<sim::DynamicResult> run_dynamic_batch(
    const topo::Network& net, std::span<const DynamicRun> runs);

}  // namespace optdm::apps
