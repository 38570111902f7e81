#include <gtest/gtest.h>

#include "apps/pipeline.hpp"
#include "apps/workloads.hpp"
#include "patterns/named.hpp"
#include "sim/dynamic.hpp"
#include "topo/torus.hpp"

/// Regression suite pinning the paper's *qualitative claims* — the shape
/// results EXPERIMENTS.md reports.  Each test names the claim it guards.
/// Quantitative reproduction (exact degrees) lives in the per-module
/// tests; this file keeps the headline story from silently regressing.

namespace {

using namespace optdm;

class PaperClaims : public ::testing::Test {
 protected:
  PaperClaims() : net_(8, 8), pipeline_(net_) {}

  std::int64_t dynamic_time(const apps::CommPhase& phase, int k) {
    sim::DynamicParams params;
    params.multiplexing_degree = k;
    const auto run = sim::simulate_dynamic(net_, phase.messages, params);
    EXPECT_TRUE(run.completed);
    return run.total_slots;
  }

  std::int64_t compiled_time(const apps::CommPhase& phase) {
    return sim::simulate_compiled(compile(phase.pattern()).schedule,
                                  phase.messages)
        .total_slots;
  }

  apps::CompiledPhase compile(const core::RequestSet& pattern) {
    return pipeline_.compile_phase(pattern).phase;
  }

  topo::TorusNetwork net_;
  apps::Pipeline pipeline_;
};

TEST_F(PaperClaims, CompiledOutperformsDynamicOnEveryStaticPattern) {
  // Paper Section 4.2: "the compiled communication out-performs dynamic
  // communication in all cases".
  std::vector<apps::CommPhase> phases;
  phases.push_back(apps::gs_phase(64, 64));
  phases.push_back(apps::gs_phase(256, 64));
  phases.push_back(apps::tscf_phase(64));
  for (auto& p : apps::p3m_phases(32)) phases.push_back(std::move(p));
  for (const auto& phase : phases) {
    const auto compiled = compiled_time(phase);
    for (const int k : {1, 2, 5, 10}) {
      EXPECT_GT(dynamic_time(phase, k), compiled)
          << phase.name << " K=" << k;
    }
  }
}

TEST_F(PaperClaims, MultiplexingDoesNotAlwaysHelpDynamicCommunication) {
  // Paper Section 4.2: "the multiplexing does not always improve the
  // communication performance for dynamic communication.  For example, a
  // multiplexing degree of 1 results in best performance for the pattern
  // in GS."
  const auto gs = apps::gs_phase(256, 64);
  const auto at_1 = dynamic_time(gs, 1);
  EXPECT_LT(at_1, dynamic_time(gs, 5));
  EXPECT_LT(at_1, dynamic_time(gs, 10));
}

TEST_F(PaperClaims, DenseRedistributionPrefersLargerDynamicDegree) {
  // The converse half of the same claim: the dense P3M 2 pattern blocks
  // badly at K=1 and improves with more channels.
  const auto p3m2 = apps::p3m_phases(32)[1];
  EXPECT_GT(dynamic_time(p3m2, 1), dynamic_time(p3m2, 5));
}

TEST_F(PaperClaims, SmallMessagesSufferMostUnderDynamicControl) {
  // Paper: "Larger performance gains are observed for communication with
  // small message sizes (e.g., the TSCF pattern)."  Compare best-dynamic /
  // compiled ratios of TSCF (2-slot messages) vs GS 256 (64-slot).
  const auto tscf = apps::tscf_phase(64);
  const auto gs = apps::gs_phase(256, 64);
  const auto ratio = [&](const apps::CommPhase& phase) {
    std::int64_t best = -1;
    for (const int k : {1, 2, 5, 10}) {
      const auto t = dynamic_time(phase, k);
      if (best < 0 || t < best) best = t;
    }
    return static_cast<double>(best) /
           static_cast<double>(compiled_time(phase));
  };
  EXPECT_GT(ratio(tscf), 3.0 * ratio(gs));
}

TEST_F(PaperClaims, CompiledUsesThePatternOptimalDegree) {
  // Paper Section 4.2 factor 4: each pattern has its own optimal degree
  // and the compiler picks it — GS gets 2, the hypercube 7-8, dense
  // redistributions the AAPC cap.
  EXPECT_EQ(compile(apps::gs_phase(64, 64).pattern()).schedule.degree(), 2);
  const auto tscf =
      compile(apps::tscf_phase(64).pattern()).schedule.degree();
  EXPECT_GE(tscf, 6);
  EXPECT_LE(tscf, 8);
  EXPECT_EQ(compile(patterns::all_to_all(64)).schedule.degree(), 64);
}

TEST_F(PaperClaims, NinetyFivePercentStoryHasTeeth) {
  // The paper's motivation: static patterns dominate, so the compiled
  // path must cover the application suite end to end — every Table 4
  // pattern compiles, validates, and stays within the all-to-all cap.
  std::vector<apps::CommPhase> phases;
  phases.push_back(apps::gs_phase(128, 64));
  phases.push_back(apps::tscf_phase(64));
  for (auto& p : apps::p3m_phases(64)) phases.push_back(std::move(p));
  for (const auto& phase : phases) {
    const auto compiled = compile(phase.pattern());
    EXPECT_EQ(compiled.schedule.validate_against(phase.pattern()),
              std::nullopt)
        << phase.name;
    EXPECT_LE(compiled.schedule.degree(), 64) << phase.name;
  }
}

}  // namespace
