#include <gtest/gtest.h>

#include "apps/pipeline.hpp"
#include "patterns/named.hpp"
#include "patterns/random.hpp"
#include "sched/bounds.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

/// One cold compile through a default (combined-scheduler) pipeline.
apps::CompiledPhase compile(const topo::TorusNetwork& net,
                            const core::RequestSet& pattern) {
  return apps::Pipeline(net).compile_phase(pattern).phase;
}

TEST(Compiler, CompilesPatternsWithValidSchedules) {
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  util::Rng rng(12);
  for (const int conns : {10, 200, 1000}) {
    const auto requests = patterns::random_pattern(64, conns, rng);
    const auto compiled = pipeline.compile_phase(requests).phase;
    EXPECT_EQ(compiled.schedule.validate_against(requests), std::nullopt);
    EXPECT_GE(compiled.schedule.degree(), compiled.lower_bound);
  }
}

TEST(Compiler, AllToAllCompilesToSixtyFour) {
  topo::TorusNetwork net(8, 8);
  const auto compiled = compile(net, patterns::all_to_all(64));
  EXPECT_EQ(compiled.schedule.degree(), 64);
  EXPECT_EQ(compiled.winner, sched::CombinedWinner::kOrderedAapc);
  EXPECT_EQ(compiled.lower_bound, 64);
}

// The compiler takes its bound from the coloring branch's routes and
// conflict graph; it must equal the bound computed from scratch on the
// default routes, on every input shape a compile sees.
void expect_bound_matches_routed_bound(const topo::TorusNetwork& net,
                                       const core::RequestSet& pattern) {
  const auto compiled = compile(net, pattern);
  const auto paths = core::route_all(net, pattern);
  EXPECT_EQ(compiled.lower_bound, sched::multiplexing_lower_bound(net, paths))
      << net.name() << ", " << pattern.size() << " connections";
}

TEST(Compiler, LowerBoundIsTheRoutedBoundOnTableOneSizes) {
  topo::TorusNetwork small(8, 8);
  topo::TorusNetwork large(16, 16);
  util::Rng rng(1996);
  for (const int conns : {100, 400, 800, 1200, 1600, 2000, 2800, 4000})
    expect_bound_matches_routed_bound(
        small, patterns::random_pattern(small.node_count(), conns, rng));
  for (const int conns : {100, 1000, 4000})
    expect_bound_matches_routed_bound(
        large, patterns::random_pattern(large.node_count(), conns, rng));
}

TEST(Compiler, LowerBoundIsTheRoutedBoundOnEdgePatterns) {
  for (const int side : {8, 16}) {
    topo::TorusNetwork net(side, side);
    expect_bound_matches_routed_bound(net, {});
    expect_bound_matches_routed_bound(net, {{0, net.node_count() - 1}});
  }
  topo::TorusNetwork net(8, 8);
  expect_bound_matches_routed_bound(net, patterns::all_to_all(64));
}

TEST(Compiler, ExecutePredictsGsTimes) {
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  const auto execute = [&](const apps::CommPhase& phase) {
    return sim::simulate_compiled(
               pipeline.compile_phase(phase.pattern()).phase.schedule,
               phase.messages)
        .total_slots;
  };
  EXPECT_EQ(execute(apps::gs_phase(64, 64)), 35);
  EXPECT_EQ(execute(apps::gs_phase(128, 64)), 67);
  EXPECT_EQ(execute(apps::gs_phase(256, 64)), 131);
}

TEST(Compiler, NetworkAccessorsExposeSubstrate) {
  topo::TorusNetwork net(4, 4);
  const apps::Pipeline pipeline(net);
  EXPECT_EQ(&pipeline.network(), &net);
  EXPECT_EQ(pipeline.scheduler().name(), "combined");
}

}  // namespace
