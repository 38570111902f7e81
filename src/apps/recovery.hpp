#pragma once

#include <span>
#include <vector>

#include "apps/pipeline.hpp"
#include "sched/reconfig.hpp"
#include "sim/compiled.hpp"
#include "sim/faults.hpp"

/// \file recovery.hpp
/// Detect-and-recompile fault recovery for compiled communication.
///
/// Compiled communication has no runtime control plane, so it cannot
/// *react* to a fault inside a phase — but the compiler can react
/// *between* phases.  The recovery loop models exactly that division of
/// labor:
///
///  1. run the phase's schedule; payloads crossing a dead link vanish;
///  2. the runtime monitor detects the losses (`detection_slots` later);
///  3. the compiler is re-invoked on the *surviving* topology — dead
///     links are routed around with two-leg misrouting
///     (`sched::try_route_around_faults`) and the pending messages are
///     rescheduled (`recompile_slots` of penalty, the reconfiguration
///     cost knob);
///  4. the retransmission phase runs at the new clock offset against the
///     same fault timeline; repeat until everything is delivered, a
///     request is unroutable (`kFailed`), or `max_rounds` is hit.
///
/// This is the compiled counterpart of the dynamic protocol's
/// timeout-and-retry: recovery by recompilation instead of by
/// reservation.

namespace optdm::apps {

/// Knobs of the recovery loop.
struct RecoveryParams {
  /// Parameters forwarded to every `simulate_compiled` round.
  sim::CompiledParams sim;
  /// Slots between the end of a lossy round and the fault set being
  /// known to the compiler (runtime monitoring latency).
  std::int64_t detection_slots = 64;
  /// Slots charged per recompilation: rescheduling plus reloading the
  /// switch registers fabric-wide.
  std::int64_t recompile_slots = 512;
  /// Transmission rounds before the loop gives up on still-lossy
  /// messages (>= 1); round 1 is the original schedule.
  int max_rounds = 8;
  /// Reconfiguration cost model.  With `reconfig.latency > 0` every
  /// fresh recovery schedule additionally pays the register-load bill
  /// `sched::fresh_load_cost(latency, degree)` before its round starts.
  /// 0 reproduces the pre-R loop byte for byte.
  sched::ReconfigOptions reconfig;
  /// Allow a recovery round to *reuse* the previous round's schedule
  /// instead of recompiling, when (a) every pending message's path in it
  /// avoids the links dead at decision time and (b)
  /// `sched::decide_reuse` finds the stale degree penalty cheaper than
  /// the fresh register-load bill.  A reusing round skips
  /// `recompile_slots` and the load bill entirely.  Irrelevant at
  /// `reconfig.latency == 0`, where fresh always wins.
  bool reuse_schedules = true;
};

/// Per-round observability record.
struct RecoveryRound {
  /// Absolute slot at which the round's transmission started.
  std::int64_t start_slot = 0;
  /// Multiplexing degree of the round's schedule.
  int degree = 0;
  /// Messages carried (pending retransmissions after round 1).
  int carried = 0;
  /// Payloads of this round that crossed a dead link.
  std::int64_t payloads_lost = 0;
  /// Requests that needed two-leg misrouting (0 for round 1).
  int rerouted = 0;
  /// True when the round ran the previous round's schedule unchanged
  /// (reuse-vs-recompile chose reuse).
  bool reused = false;
};

/// Result of a recovery-loop run.
struct RecoveryResult {
  /// Global clock when the loop stopped: transmission rounds plus all
  /// detection and recompilation penalties.
  std::int64_t total_slots = 0;
  /// Aggregate accounting; `recompiles`, `added_latency_slots`, and
  /// `degraded_frames` (rounds with at least one loss) are filled here.
  sim::FaultStats faults;
  /// Final per-message records, in input order; `completed` is on the
  /// absolute clock, -1 for messages never delivered.
  std::vector<sim::CompiledMessageStats> messages;
  /// One entry per transmission round, in order.
  std::vector<RecoveryRound> rounds;
  /// R-weighted reconfiguration slots the loop paid: register-load bills
  /// of fresh schedules plus degree penalties of reused ones.  0 at
  /// `reconfig.latency == 0`.
  std::int64_t reconfig_slots_paid = 0;
  /// Reuse-vs-recompile comparisons actually evaluated (viable stale
  /// schedule present); `rounds[i].reused` says how each one went.
  std::int64_t reuse_decisions = 0;

  /// True when every message ended `kDelivered`.
  bool all_delivered() const noexcept {
    return faults.undelivered() == 0;
  }
};

/// Runs `messages` through the detect-and-recompile loop against
/// `faults`.  Round 1 compiles the full pattern through `pipeline` (its
/// scheduler — the paper's combined algorithm by default — and its cache;
/// fault-blind, as a real compiler would be); later rounds reroute the
/// undelivered remainder around the links dead at recompile time.  Safe
/// to call concurrently on one pipeline.  Deterministic: same inputs,
/// same result.  Throws `std::invalid_argument` for `max_rounds < 1`.
///
/// A non-null `trace` records the loop's timeline on a "recovery" track
/// (one span per transmission round, one per detection+recompile penalty)
/// plus each round's engine-level events; a null trace is the no-op sink.
RecoveryResult run_with_recovery(Pipeline& pipeline,
                                 std::span<const sim::Message> messages,
                                 const sim::FaultTimeline& faults,
                                 const RecoveryParams& params = {},
                                 obs::Trace* trace = nullptr);

}  // namespace optdm::apps
