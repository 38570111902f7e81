#pragma once

#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "core/schedule.hpp"
#include "sched/combined.hpp"
#include "sim/compiled.hpp"

/// \file program.hpp
/// Whole-program compiled communication.  A parallel program is a
/// sequence of compute regions separated by static communication phases;
/// the compiler schedules *each phase with its own multiplexing degree*
/// and emits register reloads at phase boundaries — the paper's Section 2:
/// "different multiplexing degrees can be used in different phases of the
/// parallel program".  `Pipeline::compile` (pipeline.hpp) compiles a
/// `Program` into a `CompiledProgram`; `execute_program` times it.
///
/// `execute_program` also supports a fixed-frame mode that forces every
/// phase onto one global multiplexing degree, quantifying the paper's
/// fourth performance factor (Section 4.2): a fixed K wastes slots in
/// phases whose optimal degree is smaller.

namespace optdm::apps {

/// A compiled communication phase.
struct CompiledPhase {
  /// The configuration set; its size is the multiplexing degree the TDM
  /// network is programmed with for this phase.
  core::Schedule schedule;
  /// Which component heuristic won (coloring vs ordered-AAPC).
  sched::CombinedWinner winner = sched::CombinedWinner::kColoring;
  /// Lower bound on any schedule's degree for this pattern (link
  /// congestion / clique); schedule.degree() >= lower_bound always.
  int lower_bound = 0;
};

/// A program: communication phases with interleaved compute time.
struct Program {
  std::string name;
  std::vector<CommPhase> phases;
  /// Compute slots between consecutive communication phases (and before
  /// the first).  Communication/computation overlap is not modeled: the
  /// paper's comparison is about communication time.
  std::int64_t compute_slots = 0;
  /// How many times the phase sequence repeats (main iteration count).
  int iterations = 1;
};

/// Per-phase compilation results for one program.
struct CompiledProgram {
  std::vector<CompiledPhase> phases;
  /// max over phases of the phase degree — the degree a fixed-K design
  /// would be forced to provision.
  int max_degree = 0;
};

/// Timing of one program execution.
struct ProgramRunResult {
  /// End-to-end slots, compute + reconfiguration + communication.
  std::int64_t total_slots = 0;
  /// Communication slots only.
  std::int64_t comm_slots = 0;
  /// Per-phase communication time of the first iteration.
  std::vector<std::int64_t> phase_slots;
};

/// Executes a compiled program: phases run back to back, each paying the
/// register-reload cost in `params` and its own transmission time.  If
/// `fixed_frame` is positive, every phase is forced onto a TDM frame of
/// that many slots (phases with smaller degrees idle the surplus slots) —
/// set it to `compiled.max_degree` to model a network that cannot change
/// its multiplexing degree between phases.
ProgramRunResult execute_program(const CompiledProgram& compiled,
                                 const Program& program,
                                 const sim::CompiledParams& params = {},
                                 std::int64_t fixed_frame = 0);

}  // namespace optdm::apps
