#include <gtest/gtest.h>

#include "apps/pipeline.hpp"

namespace {

using namespace optdm;
using apps::execute_program;
using apps::Program;

/// Compiles every phase of `program` as-is (no cross-phase stitching).
apps::CompiledProgram compile_unstitched(const topo::TorusNetwork& net,
                                         const Program& program) {
  apps::PipelineOptions options;
  options.stitch = false;
  return apps::Pipeline(net, options).compile(program).compiled;
}

Program gs_p3m_program() {
  Program program;
  program.name = "gs+p3m";
  program.phases.push_back(apps::gs_phase(64, 64));
  for (auto& phase : apps::p3m_phases(32))
    program.phases.push_back(std::move(phase));
  return program;
}

TEST(ProgramCompilation, CompilesEveryPhase) {
  topo::TorusNetwork net(8, 8);
  const auto program = gs_p3m_program();
  const auto compiled = compile_unstitched(net, program);
  ASSERT_EQ(compiled.phases.size(), program.phases.size());
  int max_degree = 0;
  for (std::size_t p = 0; p < compiled.phases.size(); ++p) {
    EXPECT_EQ(compiled.phases[p].schedule.validate_against(
                  program.phases[p].pattern()),
              std::nullopt);
    max_degree = std::max(max_degree, compiled.phases[p].schedule.degree());
  }
  EXPECT_EQ(compiled.max_degree, max_degree);
}

TEST(ProgramExecution, SumsPhaseTimes) {
  topo::TorusNetwork net(8, 8);
  Program program;
  program.phases.push_back(apps::gs_phase(64, 64));
  program.phases.push_back(apps::tscf_phase(64));
  const auto compiled = compile_unstitched(net, program);
  const auto run = execute_program(compiled, program);
  ASSERT_EQ(run.phase_slots.size(), 2u);
  EXPECT_EQ(run.comm_slots, run.phase_slots[0] + run.phase_slots[1]);
  EXPECT_EQ(run.total_slots, run.comm_slots);  // no compute modeled
}

TEST(ProgramExecution, IterationsScaleCommTime) {
  topo::TorusNetwork net(8, 8);
  Program program;
  program.phases.push_back(apps::gs_phase(64, 64));
  program.iterations = 5;
  const auto compiled = compile_unstitched(net, program);
  const auto once = execute_program(
      compiled, [&] { auto p = program; p.iterations = 1; return p; }());
  const auto five = execute_program(compiled, program);
  EXPECT_EQ(five.comm_slots, 5 * once.comm_slots);
}

TEST(ProgramExecution, ComputeSlotsAreAccounted) {
  topo::TorusNetwork net(8, 8);
  Program program;
  program.phases.push_back(apps::tscf_phase(64));
  program.compute_slots = 100;
  const auto compiled = compile_unstitched(net, program);
  const auto run = execute_program(compiled, program);
  EXPECT_EQ(run.total_slots, run.comm_slots + 100);
}

TEST(ProgramExecution, FixedFrameNeverFasterAndUsuallySlower) {
  // Forcing every phase onto the largest degree (the fixed-K design the
  // paper's Section 4.2 argues against) can only slow phases down.
  topo::TorusNetwork net(8, 8);
  const auto program = gs_p3m_program();
  const auto compiled = compile_unstitched(net, program);

  const auto adaptive = execute_program(compiled, program);
  const auto fixed =
      execute_program(compiled, program, {}, compiled.max_degree);
  ASSERT_EQ(adaptive.phase_slots.size(), fixed.phase_slots.size());
  for (std::size_t p = 0; p < adaptive.phase_slots.size(); ++p)
    EXPECT_LE(adaptive.phase_slots[p], fixed.phase_slots[p]) << "phase " << p;
  // The GS phase (degree 2) must suffer badly under the P3M-sized frame.
  EXPECT_GT(fixed.phase_slots[0], 4 * adaptive.phase_slots[0]);
}

TEST(ProgramExecution, RejectsBadArguments) {
  topo::TorusNetwork net(8, 8);
  Program program;
  program.phases.push_back(apps::tscf_phase(64));
  auto compiled = compile_unstitched(net, program);

  auto zero_iters = program;
  zero_iters.iterations = 0;
  EXPECT_THROW(execute_program(compiled, zero_iters), std::invalid_argument);

  EXPECT_THROW(execute_program(compiled, program, {},
                               compiled.max_degree - 1),
               std::invalid_argument);

  Program mismatched;  // different phase count
  EXPECT_THROW(execute_program(compiled, mismatched), std::invalid_argument);
}

TEST(FramePadding, PaddedFrameSlowsSimulatedTransmission) {
  topo::TorusNetwork net(8, 8);
  const auto phase = apps::gs_phase(64, 64);
  const auto compiled =
      apps::Pipeline(net).compile_phase(phase.pattern()).phase;
  sim::CompiledParams padded;
  padded.frame_slots = 10;
  const auto normal = sim::simulate_compiled(compiled.schedule, phase.messages);
  const auto slow =
      sim::simulate_compiled(compiled.schedule, phase.messages, padded);
  EXPECT_GT(slow.total_slots, normal.total_slots);
  sim::CompiledParams invalid;
  invalid.frame_slots = 1;  // below the degree (2)
  EXPECT_THROW(
      sim::simulate_compiled(compiled.schedule, phase.messages, invalid),
      std::invalid_argument);
}

}  // namespace
