#include <gtest/gtest.h>

#include "apps/pipeline.hpp"
#include "collectives/collectives.hpp"
#include "topo/torus.hpp"

namespace {

using namespace optdm;
using namespace optdm::collectives;

/// Compiles every phase of `program` as-is (no cross-phase stitching).
apps::CompiledProgram compile_unstitched(const topo::TorusNetwork& net,
                                         const apps::Program& program) {
  apps::PipelineOptions options;
  options.stitch = false;
  return apps::Pipeline(net, options).compile(program).compiled;
}

TEST(Broadcast, StructureAndDataFlow) {
  const auto program = broadcast(64, 0, 4);
  EXPECT_EQ(program.phases.size(), 6u);  // log2(64)
  std::size_t total = 0;
  for (const auto& phase : program.phases) total += phase.messages.size();
  EXPECT_EQ(total, 63u);  // n-1 transfers overall
  EXPECT_TRUE(verify_broadcast(program, 64, 0));
}

TEST(Broadcast, NonZeroRoot) {
  for (const topo::NodeId root : {1, 17, 63}) {
    const auto program = broadcast(64, root, 2);
    EXPECT_TRUE(verify_broadcast(program, 64, root)) << "root " << root;
  }
}

TEST(Broadcast, VerifierRejectsBrokenTree) {
  auto program = broadcast(16, 0, 1);
  // Sabotage: the first phase sends from a node that has nothing yet.
  program.phases[0].messages[0].request.src = 5;
  EXPECT_FALSE(verify_broadcast(program, 16, 0));
}

TEST(Broadcast, RejectsBadArguments) {
  EXPECT_THROW(broadcast(12, 0, 1), std::invalid_argument);
  EXPECT_THROW(broadcast(16, 16, 1), std::invalid_argument);
  EXPECT_THROW(broadcast(16, 0, 0), std::invalid_argument);
}

TEST(AllgatherRing, StructureAndDataFlow) {
  const auto program = allgather_ring(8, 3);
  EXPECT_EQ(program.phases.size(), 7u);  // n-1 steps
  for (const auto& phase : program.phases)
    EXPECT_EQ(phase.messages.size(), 8u);
  EXPECT_TRUE(verify_allgather(program, 8));
}

TEST(AllgatherRing, WorksForNonPowerOfTwo) {
  const auto program = allgather_ring(6, 1);
  EXPECT_EQ(program.phases.size(), 5u);
  EXPECT_TRUE(verify_allgather(program, 6));
}

TEST(AllgatherRing, VerifierRejectsTooFewSteps) {
  auto program = allgather_ring(8, 1);
  program.phases.pop_back();
  EXPECT_FALSE(verify_allgather(program, 8));
}

TEST(ReduceScatter, StructureAndDataFlow) {
  const auto program = reduce_scatter(16, 2);
  EXPECT_EQ(program.phases.size(), 4u);
  // Volumes halve every step: 8*2, 4*2, 2*2, 1*2 slots.
  EXPECT_EQ(program.phases[0].messages.front().slots, 16);
  EXPECT_EQ(program.phases[3].messages.front().slots, 2);
  EXPECT_TRUE(verify_reduce_scatter(program, 16));
}

TEST(ReduceScatter, VerifierRejectsWrongPairs) {
  auto program = reduce_scatter(8, 1);
  program.phases[1].messages[0].request.dst =
      program.phases[1].messages[0].request.src;  // self pair
  EXPECT_FALSE(verify_reduce_scatter(program, 8));
}

TEST(Collectives, CompileOnTorusWithSmallDegrees) {
  // Each collective phase is sparse and structured; the compiler should
  // find small multiplexing degrees throughout.
  topo::TorusNetwork net(8, 8);
  for (const auto& program :
       {broadcast(64, 0, 4), allgather_ring(64, 4), reduce_scatter(64, 1)}) {
    const auto compiled = compile_unstitched(net, program);
    for (std::size_t p = 0; p < compiled.phases.size(); ++p) {
      EXPECT_EQ(compiled.phases[p].schedule.validate_against(
                    program.phases[p].pattern()),
                std::nullopt)
          << program.name << " phase " << p;
      EXPECT_LE(compiled.phases[p].schedule.degree(), 4)
          << program.name << " phase " << p;
    }
  }
}

TEST(Collectives, BroadcastLatencyScalesLogarithmically) {
  topo::TorusNetwork net(8, 8);
  const auto program = broadcast(64, 0, 4);
  const auto compiled = compile_unstitched(net, program);
  const auto run = apps::execute_program(compiled, program);
  ASSERT_EQ(run.phase_slots.size(), 6u);
  // Each step is a handful of disjoint transfers: a few frames each.
  for (const auto slots : run.phase_slots) EXPECT_LE(slots, 40);
}

TEST(Collectives, AllgatherTotalTimeLinearInN) {
  topo::TorusNetwork net(8, 8);
  const auto program = allgather_ring(64, 4);
  const auto compiled = compile_unstitched(net, program);
  const auto run = apps::execute_program(compiled, program);
  EXPECT_EQ(run.phase_slots.size(), 63u);
  // Every step is the same shift permutation: identical cost.
  for (const auto slots : run.phase_slots)
    EXPECT_EQ(slots, run.phase_slots.front());
}


TEST(Scatter, StructureAndDataFlow) {
  const auto program = scatter(16, 0, 2);
  EXPECT_EQ(program.phases.size(), 4u);
  // Volumes halve: 8*2, 4*2, 2*2, 1*2.
  EXPECT_EQ(program.phases[0].messages.front().slots, 16);
  EXPECT_EQ(program.phases[3].messages.front().slots, 2);
  EXPECT_TRUE(verify_scatter(program, 16, 0));
}

TEST(Scatter, NonZeroRootAndRejects) {
  for (const topo::NodeId root : {3, 9, 15}) {
    EXPECT_TRUE(verify_scatter(scatter(16, root, 1), 16, root))
        << "root " << root;
  }
  EXPECT_THROW(scatter(12, 0, 1), std::invalid_argument);
  EXPECT_THROW(scatter(16, -1, 1), std::invalid_argument);
}

TEST(Scatter, VerifierRejectsBrokenTree) {
  auto program = scatter(16, 0, 1);
  program.phases[0].messages[0].request.dst = 3;  // wrong subtree partner
  EXPECT_FALSE(verify_scatter(program, 16, 0));
}

TEST(Allreduce, ComposesReduceScatterAndAllgather) {
  const auto program = allreduce(8, 2);
  // log2(8) halving steps + 7 ring steps.
  EXPECT_EQ(program.phases.size(), 3u + 7u);
  // The composition is correct iff both halves verify.
  apps::Program first_half;
  first_half.phases.assign(program.phases.begin(),
                           program.phases.begin() + 3);
  EXPECT_TRUE(verify_reduce_scatter(first_half, 8));
  apps::Program second_half;
  second_half.phases.assign(program.phases.begin() + 3,
                            program.phases.end());
  EXPECT_TRUE(verify_allgather(second_half, 8));
}

}  // namespace
