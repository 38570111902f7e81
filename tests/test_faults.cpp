#include <gtest/gtest.h>

#include <vector>

#include "apps/pipeline.hpp"
#include "apps/recovery.hpp"
#include "core/path.hpp"
#include "core/switch_program.hpp"
#include "patterns/random.hpp"
#include "sched/coloring.hpp"
#include "sched/fault.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"
#include "sim/faults.hpp"
#include "sim/hardware.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;
using sim::FaultTimeline;
using sim::Message;
using sim::MessageOutcome;

/// First network link of the XY route src -> dst.
topo::LinkId network_link_of(const topo::Network& net, core::Request r) {
  const auto path = core::make_path(net, r);
  return path.links[1];
}

sim::DynamicParams quiet_params(int k) {
  sim::DynamicParams p;
  p.multiplexing_degree = k;
  p.ctrl_hop_slots = 4;
  p.ctrl_local_slots = 2;
  p.backoff_slots = 16;
  return p;
}

sim::SimOptions with_faults(const FaultTimeline& tl, std::int64_t start = 0) {
  sim::SimOptions o;
  o.faults = &tl;
  o.start_slot = start;
  return o;
}

// ---------------------------------------------------------------- timeline

TEST(FaultTimeline, DownRespectsHalfOpenWindows) {
  FaultTimeline tl;
  tl.flap_link(7, 10, 13);
  EXPECT_FALSE(tl.down(7, 9));
  EXPECT_TRUE(tl.down(7, 10));
  EXPECT_TRUE(tl.down(7, 12));
  EXPECT_FALSE(tl.down(7, 13));
  EXPECT_FALSE(tl.down(8, 11));

  tl.kill_link(3, 100);
  EXPECT_FALSE(tl.down(3, 99));
  EXPECT_TRUE(tl.down(3, 100));
  EXPECT_TRUE(tl.down(3, 1'000'000'000));
}

TEST(FaultTimeline, MarkLostPayloadsUsesIntervalArithmetic) {
  FaultTimeline tl;
  tl.flap_link(7, 10, 13);
  // Payload i transmits at slot 2 * i: slots 10 and 12 fall in the window.
  std::vector<char> lost(10, 0);
  const std::vector<topo::LinkId> links{7};
  tl.mark_lost_payloads(links, 0, 2, lost);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(lost[static_cast<std::size_t>(i)] != 0, i == 5 || i == 6) << i;
}

TEST(FaultTimeline, CtrlDropIsDeterministicAndRespectsExtremes) {
  FaultTimeline none(42);
  EXPECT_FALSE(none.drop_ctrl(123));  // probability defaults to 0

  FaultTimeline always(42);
  always.set_ctrl_loss(1.0);
  FaultTimeline never(42);
  never.set_ctrl_loss(0.0);
  FaultTimeline half(42);
  half.set_ctrl_loss(0.5);
  FaultTimeline half_again(42);
  half_again.set_ctrl_loss(0.5);
  int dropped = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(always.drop_ctrl(key));
    EXPECT_FALSE(never.drop_ctrl(key));
    EXPECT_EQ(half.drop_ctrl(key), half_again.drop_ctrl(key));
    if (half.drop_ctrl(key)) ++dropped;
  }
  EXPECT_GT(dropped, 350);
  EXPECT_LT(dropped, 650);

  EXPECT_THROW(half.set_ctrl_loss(-0.1), std::invalid_argument);
  EXPECT_THROW(half.set_ctrl_loss(1.1), std::invalid_argument);
}

TEST(FaultTimeline, RandomTimelineIsDeterministicInSeed) {
  topo::TorusNetwork net(8, 8);
  sim::FaultSpec spec;
  spec.kill_probability = 0.05;
  spec.flap_probability = 0.1;
  const auto a = sim::random_fault_timeline(net, spec);
  const auto b = sim::random_fault_timeline(net, spec);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  for (std::size_t i = 0; i < a.faults().size(); ++i)
    EXPECT_EQ(a.faults()[i], b.faults()[i]);
  EXPECT_TRUE(a.active());
}

// ------------------------------------------------------- zero-fault identity

TEST(Faults, InactiveTimelineIsByteIdenticalAcrossEngines) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(33);
  const auto requests = patterns::random_pattern(64, 120, rng);
  const auto messages = sim::uniform_messages(requests, 4);
  const FaultTimeline healthy;

  const auto schedule = sched::coloring(net, requests);
  const auto plain = sim::simulate_compiled(schedule, messages, {});
  const auto faulty = sim::simulate_compiled(schedule, messages, {}, with_faults(healthy));
  ASSERT_EQ(plain.messages.size(), faulty.messages.size());
  EXPECT_EQ(plain.total_slots, faulty.total_slots);
  EXPECT_EQ(faulty.faults, sim::FaultStats{});
  for (std::size_t i = 0; i < plain.messages.size(); ++i) {
    EXPECT_EQ(plain.messages[i].completed, faulty.messages[i].completed);
    EXPECT_EQ(plain.messages[i].slot, faulty.messages[i].slot);
    EXPECT_EQ(faulty.messages[i].outcome, MessageOutcome::kDelivered);
  }

  const core::SwitchProgram program(net, schedule);
  const auto hw = sim::execute_on_hardware(net, schedule, program, messages);
  const auto hw_faulty =
      sim::execute_on_hardware(net, schedule, program, messages, {}, with_faults(healthy));
  EXPECT_EQ(hw.total_slots, hw_faulty.total_slots);
  EXPECT_EQ(hw_faulty.faults, sim::FaultStats{});

  const auto dyn = sim::simulate_dynamic(net, messages, quiet_params(2));
  const auto dyn_faulty =
      sim::simulate_dynamic(net, messages, quiet_params(2), with_faults(healthy));
  ASSERT_EQ(dyn.messages.size(), dyn_faulty.messages.size());
  EXPECT_EQ(dyn.total_slots, dyn_faulty.total_slots);
  EXPECT_EQ(dyn.total_retries, dyn_faulty.total_retries);
  EXPECT_EQ(dyn.clean_shutdown, dyn_faulty.clean_shutdown);
  EXPECT_EQ(dyn_faulty.faults, sim::FaultStats{});
  for (std::size_t i = 0; i < dyn.messages.size(); ++i) {
    EXPECT_EQ(dyn.messages[i].issued, dyn_faulty.messages[i].issued);
    EXPECT_EQ(dyn.messages[i].established, dyn_faulty.messages[i].established);
    EXPECT_EQ(dyn.messages[i].completed, dyn_faulty.messages[i].completed);
    EXPECT_EQ(dyn.messages[i].retries, dyn_faulty.messages[i].retries);
  }
}

// ------------------------------------------------------------ compiled side

TEST(Faults, PermanentKillLosesExactlyTheCrossingMessages) {
  topo::TorusNetwork net(8, 8);
  // Two link-disjoint connections; kill a network link of the first.
  const core::RequestSet requests{{0, 1}, {18, 19}};
  const auto messages = sim::uniform_messages(requests, 6);
  const auto schedule = sched::coloring(net, requests);

  FaultTimeline tl;
  tl.kill_link(network_link_of(net, requests[0]), 0);

  const auto run = sim::simulate_compiled(schedule, messages, {}, with_faults(tl));
  EXPECT_EQ(run.messages[0].outcome, MessageOutcome::kLost);
  EXPECT_EQ(run.messages[0].payloads_lost, 6);  // every payload crossed it
  EXPECT_EQ(run.messages[1].outcome, MessageOutcome::kDelivered);
  EXPECT_EQ(run.messages[1].payloads_lost, 0);
  EXPECT_EQ(run.faults.messages_lost, 1);
  EXPECT_EQ(run.faults.payloads_lost, 6);
  // Timing is unchanged: the sender has no feedback.
  const auto healthy = sim::simulate_compiled(schedule, messages, {});
  EXPECT_EQ(run.total_slots, healthy.total_slots);
  EXPECT_EQ(run.messages[0].completed, healthy.messages[0].completed);
}

TEST(Faults, TransientFlapLosesExactlyTheWindowedPayloads) {
  topo::TorusNetwork net(8, 8);
  const core::RequestSet requests{{0, 1}};
  const std::vector<Message> messages{{{0, 1}, 20}};
  const auto schedule = sched::coloring(net, requests);
  ASSERT_EQ(schedule.degree(), 1);

  // K = 1, setup 3: payload j transmits at slot 3 + j.  A flap over
  // [5, 8) eats payloads 2, 3, 4 and nothing else.
  FaultTimeline tl;
  tl.flap_link(network_link_of(net, requests[0]), 5, 8);
  const auto run = sim::simulate_compiled(schedule, messages, {}, with_faults(tl));
  EXPECT_EQ(run.messages[0].outcome, MessageOutcome::kLost);
  EXPECT_EQ(run.messages[0].payloads_lost, 3);
  EXPECT_EQ(run.faults.payloads_lost, 3);

  // Shifting the run past the repair loses nothing.
  const auto later = sim::simulate_compiled(schedule, messages, {}, with_faults(tl, 100));
  EXPECT_EQ(later.messages[0].outcome, MessageOutcome::kDelivered);
  EXPECT_EQ(later.faults.payloads_lost, 0);
}

TEST(Faults, HardwareWalkAgreesWithAnalyticLossModel) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(7);
  const auto requests = patterns::random_pattern(64, 60, rng);
  const auto messages = sim::uniform_messages(requests, 5);
  const auto schedule = sched::coloring(net, requests);
  const core::SwitchProgram program(net, schedule);

  FaultTimeline tl;
  tl.kill_link(network_link_of(net, requests[0]), 0);
  tl.flap_link(network_link_of(net, requests[1]), 10, 40);

  const auto analytic = sim::simulate_compiled(schedule, messages, {}, with_faults(tl));
  const auto hw =
      sim::execute_on_hardware(net, schedule, program, messages, {}, with_faults(tl));
  ASSERT_EQ(analytic.messages.size(), hw.messages.size());
  EXPECT_EQ(analytic.total_slots, hw.total_slots);
  for (std::size_t i = 0; i < hw.messages.size(); ++i) {
    EXPECT_EQ(analytic.messages[i].outcome, hw.messages[i].outcome) << i;
    EXPECT_EQ(analytic.messages[i].payloads_lost, hw.messages[i].payloads_lost)
        << i;
  }
  EXPECT_EQ(analytic.faults, hw.faults);
}

// ------------------------------------------------------------- dynamic side

TEST(Faults, DynamicReroutesNothingButRetriesThroughFlap) {
  // Dynamic routing is deterministic, so a down link cannot be avoided —
  // but a transient flap only costs retries until the repair.
  topo::TorusNetwork net(8, 8);
  const std::vector<Message> messages{{{0, 1}, 4}};
  FaultTimeline tl;
  tl.flap_link(network_link_of(net, {0, 1}), 0, 2000);

  const auto run = sim::simulate_dynamic(net, messages, quiet_params(1), with_faults(tl));
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(run.clean_shutdown);
  EXPECT_EQ(run.messages[0].outcome, MessageOutcome::kDelivered);
  EXPECT_GT(run.messages[0].retries, 0);
  EXPECT_GE(run.messages[0].established, 2000);
}

TEST(Faults, DynamicNeverWedgesUnderTotalControlLoss) {
  // 100% control-packet loss: every reservation attempt times out.  The
  // retry budget must convert that into kFailed well inside the horizon
  // instead of spinning forever.
  topo::TorusNetwork net(8, 8);
  util::Rng rng(5);
  const auto requests = patterns::random_pattern(64, 40, rng);
  const auto messages = sim::uniform_messages(requests, 3);

  FaultTimeline tl(99);
  tl.set_ctrl_loss(1.0);
  auto params = quiet_params(2);
  params.retry_budget = 3;
  const auto run = sim::simulate_dynamic(net, messages, params, with_faults(tl));
  ASSERT_TRUE(run.completed);  // every message reached a terminal state
  EXPECT_TRUE(run.clean_shutdown);
  EXPECT_EQ(run.faults.messages_failed,
            static_cast<std::int64_t>(messages.size()));
  EXPECT_GT(run.faults.timeouts, 0);
  EXPECT_GT(run.faults.ctrl_dropped, 0);
  for (const auto& m : run.messages) {
    EXPECT_EQ(m.outcome, MessageOutcome::kFailed);
    EXPECT_EQ(m.retries, params.retry_budget + 1);
  }
}

TEST(Faults, DynamicSurvivesPartialControlLossAndStaysClean) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(6);
  const auto requests = patterns::random_pattern(64, 80, rng);
  const auto messages = sim::uniform_messages(requests, 3);

  FaultTimeline tl(123);
  tl.set_ctrl_loss(0.2);
  auto params = quiet_params(2);
  params.max_backoff_slots = 256;
  const auto run = sim::simulate_dynamic(net, messages, params, with_faults(tl));
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(run.clean_shutdown);
  EXPECT_GT(run.faults.ctrl_dropped, 0);
  EXPECT_EQ(run.faults.messages_failed, 0);  // unlimited retries
  for (const auto& m : run.messages)
    EXPECT_EQ(m.outcome, MessageOutcome::kDelivered);
}

TEST(Faults, IdenticalSeedsGiveIdenticalFaultStats) {
  topo::TorusNetwork net(8, 8);
  util::Rng rng(8);
  const auto requests = patterns::random_pattern(64, 100, rng);
  const auto messages = sim::uniform_messages(requests, 3);

  sim::FaultSpec spec;
  spec.kill_probability = 0.01;
  spec.flap_probability = 0.05;
  spec.ctrl_loss = 0.1;
  const auto tl = sim::random_fault_timeline(net, spec);
  auto params = quiet_params(2);
  params.retry_budget = 6;
  params.max_backoff_slots = 512;

  const auto a = sim::simulate_dynamic(net, messages, params, with_faults(tl));
  const auto b = sim::simulate_dynamic(net, messages, params, with_faults(tl));
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.total_slots, b.total_slots);
  EXPECT_EQ(a.total_retries, b.total_retries);

  const auto schedule = sched::coloring(net, requests);
  const auto ca = sim::simulate_compiled(schedule, messages, {}, with_faults(tl));
  const auto cb = sim::simulate_compiled(schedule, messages, {}, with_faults(tl));
  EXPECT_EQ(ca.faults, cb.faults);
}

// -------------------------------------------------------------- validation

TEST(Faults, ParamsAreValidatedOnEntry) {
  topo::TorusNetwork net(4, 4);
  const std::vector<Message> messages{{{0, 1}, 1}};
  const auto schedule = sched::coloring(net, {{0, 1}});

  sim::CompiledParams bad_setup;
  bad_setup.setup_slots = -1;
  EXPECT_THROW(sim::simulate_compiled(schedule, messages, bad_setup),
               std::invalid_argument);

  auto p = quiet_params(1);
  p.backoff_slots = 0;
  EXPECT_THROW(sim::simulate_dynamic(net, messages, p), std::invalid_argument);
  p = quiet_params(1);
  p.horizon = 0;
  EXPECT_THROW(sim::simulate_dynamic(net, messages, p), std::invalid_argument);
  p = quiet_params(1);
  p.ctrl_hop_slots = 0;
  EXPECT_THROW(sim::simulate_dynamic(net, messages, p), std::invalid_argument);
  p = quiet_params(1);
  p.ctrl_local_slots = -2;
  EXPECT_THROW(sim::simulate_dynamic(net, messages, p), std::invalid_argument);
  p = quiet_params(1);
  p.timeout_slots = -1;
  EXPECT_THROW(sim::simulate_dynamic(net, messages, p), std::invalid_argument);
  p = quiet_params(1);
  p.retry_budget = -1;
  EXPECT_THROW(sim::simulate_dynamic(net, messages, p), std::invalid_argument);
  p = quiet_params(1);
  p.max_backoff_slots = -1;
  EXPECT_THROW(sim::simulate_dynamic(net, messages, p), std::invalid_argument);
}

// ---------------------------------------------------------- partial routing

TEST(Faults, TryRouteAroundFaultsReturnsPartialPlan) {
  topo::TorusNetwork net(8, 8);
  const core::RequestSet requests{{5, 6}, {0, 1}, {10, 12}};
  core::LinkSet failed(net.link_count());
  failed.insert(net.injection_link(5));  // request 0 is unroutable

  const auto plan = sched::try_route_around_faults(net, requests, failed);
  EXPECT_FALSE(plan.complete());
  ASSERT_EQ(plan.unroutable.size(), 1u);
  EXPECT_EQ(plan.unroutable[0], 0);
  ASSERT_EQ(plan.routed.size(), 2u);
  EXPECT_EQ(plan.routed[0], 1);
  EXPECT_EQ(plan.routed[1], 2);
  ASSERT_EQ(plan.paths.size(), 2u);
  EXPECT_EQ(plan.paths[0].request, requests[1]);
  EXPECT_EQ(plan.paths[1].request, requests[2]);

  // The strict wrapper still throws on the same input.
  EXPECT_THROW(sched::route_around_faults(net, requests, failed),
               std::runtime_error);

  // With no faults the partial plan is complete and identical in shape.
  const auto clean = sched::try_route_around_faults(
      net, requests, core::LinkSet(net.link_count()));
  EXPECT_TRUE(clean.complete());
  EXPECT_EQ(clean.paths.size(), requests.size());
  EXPECT_EQ(clean.rerouted, 0);
}

// ------------------------------------------------------------ recovery loop

TEST(Faults, RecompileLoopRestoresFullDeliveryOnSurvivingTopology) {
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  util::Rng rng(11);
  const auto requests = patterns::random_pattern(64, 50, rng);
  const auto messages = sim::uniform_messages(requests, 8);

  // Compile once fault-blind to find a link the schedule actually uses,
  // then kill it from slot 0 so round 1 is guaranteed lossy.
  const auto phase = pipeline.compile_phase(requests).phase;
  topo::LinkId victim = topo::kInvalidLink;
  for (const auto& path : phase.schedule.configuration(0).paths()) {
    for (const auto link : path.links)
      if (net.link(link).kind == topo::LinkKind::kNetwork) {
        victim = link;
        break;
      }
    if (victim != topo::kInvalidLink) break;
  }
  ASSERT_NE(victim, topo::kInvalidLink);

  FaultTimeline tl;
  tl.kill_link(victim, 0);
  const auto result = apps::run_with_recovery(pipeline, messages, tl);
  EXPECT_TRUE(result.all_delivered());
  EXPECT_GE(result.faults.recompiles, 1);
  EXPECT_GT(result.faults.payloads_lost, 0);
  EXPECT_GT(result.faults.added_latency_slots, 0);
  ASSERT_GE(result.rounds.size(), 2u);
  EXPECT_EQ(result.rounds.back().payloads_lost, 0);
  for (const auto& m : result.messages) {
    EXPECT_EQ(m.outcome, MessageOutcome::kDelivered);
    EXPECT_GE(m.completed, 0);
    EXPECT_LE(m.completed, result.total_slots);
  }

  // Deterministic end to end.
  const auto again = apps::run_with_recovery(pipeline, messages, tl);
  EXPECT_EQ(result.faults, again.faults);
  EXPECT_EQ(result.total_slots, again.total_slots);
}

TEST(Faults, RecoveryReportsUnroutableRequestsAsFailed) {
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  const core::RequestSet requests{{5, 6}, {0, 1}};
  const auto messages = sim::uniform_messages(requests, 4);

  FaultTimeline tl;
  tl.kill_link(net.injection_link(5), 0);  // node 5 cannot transmit, ever
  const auto result = apps::run_with_recovery(pipeline, messages, tl);
  EXPECT_FALSE(result.all_delivered());
  EXPECT_EQ(result.faults.messages_failed, 1);
  EXPECT_EQ(result.messages[0].outcome, MessageOutcome::kFailed);
  EXPECT_EQ(result.messages[0].completed, -1);
  EXPECT_EQ(result.messages[1].outcome, MessageOutcome::kDelivered);
}

TEST(Faults, RecoveryReusesTheStaleScheduleAfterATransientFlap) {
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  const core::RequestSet requests{{0, 1}};
  const std::vector<Message> messages{{{0, 1}, 20}};

  // The flap eats a few mid-message payloads and is long gone by the time
  // the recovery loop decides round 2; the stale schedule still routes
  // everything, and at R=8 keeping it is cheaper than a register reload.
  FaultTimeline tl;
  tl.flap_link(network_link_of(net, requests[0]), 5, 8);
  apps::RecoveryParams params;
  params.reconfig.latency = 8;
  const auto result =
      apps::run_with_recovery(pipeline, messages, tl, params);
  EXPECT_TRUE(result.all_delivered());
  ASSERT_EQ(result.rounds.size(), 2u);
  EXPECT_TRUE(result.rounds[1].reused);
  EXPECT_EQ(result.reuse_decisions, 1);
  EXPECT_EQ(result.faults.recompiles, 0);
  // Reusing an equal-degree schedule costs nothing; no load bill either.
  EXPECT_EQ(result.reconfig_slots_paid, 0);

  // With reuse disabled the same run pays a recompile plus the R-weighted
  // register-load bill.
  auto no_reuse = params;
  no_reuse.reuse_schedules = false;
  const auto paid =
      apps::run_with_recovery(pipeline, messages, tl, no_reuse);
  EXPECT_TRUE(paid.all_delivered());
  EXPECT_EQ(paid.faults.recompiles, 1);
  EXPECT_EQ(paid.reuse_decisions, 0);
  EXPECT_GT(paid.reconfig_slots_paid, 0);
  EXPECT_GT(paid.total_slots, result.total_slots);
}

TEST(Faults, RecoveryAtFreeReconfigurationIgnoresTheReuseKnob) {
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  const core::RequestSet requests{{0, 1}};
  const std::vector<Message> messages{{{0, 1}, 20}};
  FaultTimeline tl;
  tl.flap_link(network_link_of(net, requests[0]), 5, 8);

  apps::RecoveryParams on;   // latency = 0, reuse_schedules = true
  apps::RecoveryParams off;
  off.reuse_schedules = false;
  const auto a = apps::run_with_recovery(pipeline, messages, tl, on);
  const auto b = apps::run_with_recovery(pipeline, messages, tl, off);
  EXPECT_EQ(a.total_slots, b.total_slots);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.reconfig_slots_paid, 0);
  EXPECT_EQ(a.reuse_decisions, 0);
}

TEST(Faults, RecoveryWithHealthyFabricIsOneCleanRound) {
  topo::TorusNetwork net(8, 8);
  apps::Pipeline pipeline(net);
  util::Rng rng(12);
  const auto requests = patterns::random_pattern(64, 40, rng);
  const auto messages = sim::uniform_messages(requests, 3);

  const auto result =
      apps::run_with_recovery(pipeline, messages, FaultTimeline{});
  EXPECT_TRUE(result.all_delivered());
  EXPECT_EQ(result.faults.recompiles, 0);
  EXPECT_EQ(result.rounds.size(), 1u);
  // One fault-blind round equals the plain compiled run.
  const auto plain = pipeline.compile_phase(requests).phase;
  const auto reference = sim::simulate_compiled(plain.schedule, messages, {});
  EXPECT_EQ(result.total_slots, reference.total_slots);
}

}  // namespace
