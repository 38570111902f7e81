#include "apps/compiler.hpp"

namespace optdm::apps {

CommCompiler::CommCompiler(const topo::TorusNetwork& net)
    : net_(&net), aapc_(std::make_unique<aapc::TorusAapc>(net)) {}

CompiledPhase CommCompiler::compile(const core::RequestSet& pattern,
                                    obs::SchedCounters* counters) const {
  CompiledPhase phase;
  auto result = sched::combined_with_winner(*aapc_, pattern, counters,
                                            &phase.lower_bound);
  phase.schedule = std::move(result.schedule);
  phase.winner = result.winner;
  return phase;
}

sim::CompiledResult CommCompiler::execute(
    const CommPhase& phase, const sim::CompiledParams& params) const {
  const auto compiled = compile(phase.pattern());
  return sim::simulate_compiled(compiled.schedule, phase.messages, params);
}

}  // namespace optdm::apps
