#include "apps/program.hpp"

#include <stdexcept>

namespace optdm::apps {

ProgramRunResult execute_program(const CompiledProgram& compiled,
                                 const Program& program,
                                 const sim::CompiledParams& params,
                                 std::int64_t fixed_frame) {
  if (compiled.phases.size() != program.phases.size())
    throw std::invalid_argument(
        "execute_program: compiled/program phase count mismatch");
  if (fixed_frame > 0 && fixed_frame < compiled.max_degree)
    throw std::invalid_argument(
        "execute_program: fixed_frame below the largest phase degree");
  if (program.iterations < 1)
    throw std::invalid_argument("execute_program: iterations must be >= 1");

  ProgramRunResult result;
  for (std::size_t p = 0; p < program.phases.size(); ++p) {
    auto phase_params = params;
    if (fixed_frame > 0) phase_params.frame_slots = fixed_frame;
    const auto run = sim::simulate_compiled(
        compiled.phases[p].schedule, program.phases[p].messages,
        phase_params);
    result.phase_slots.push_back(run.total_slots);
    result.comm_slots += run.total_slots;
  }
  // Phases repeat every iteration; register reloads (inside setup_slots)
  // repeat too because consecutive phases use different configurations.
  result.comm_slots *= program.iterations;
  result.total_slots =
      result.comm_slots + program.compute_slots *
                              static_cast<std::int64_t>(program.iterations) *
                              static_cast<std::int64_t>(
                                  program.phases.empty() ? 1 : program.phases.size());
  return result;
}

}  // namespace optdm::apps
