#include "apps/recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/linkset.hpp"
#include "obs/trace.hpp"
#include "sched/bounds.hpp"
#include "sched/coloring.hpp"
#include "sched/fault.hpp"

namespace optdm::apps {

namespace {

std::string request_key(const core::Request& request) {
  return std::to_string(request.src) + '>' + std::to_string(request.dst);
}

/// True when `schedule` carries a fault-free path for every request of
/// `pattern` — duplicates each consume their own path — against the
/// `dead` link set.  The reuse precondition: a stale schedule is only an
/// alternative if it can still deliver everything.
bool covers_pattern(const core::Schedule& schedule,
                    const core::RequestSet& pattern,
                    const core::LinkSet& dead) {
  std::unordered_map<std::string, std::vector<const core::Path*>> by_request;
  for (const auto& config : schedule.configurations())
    for (const auto& path : config.paths())
      by_request[request_key(path.request)].push_back(&path);
  for (const auto& request : pattern) {
    const auto it = by_request.find(request_key(request));
    bool found = false;
    if (it != by_request.end()) {
      auto& candidates = it->second;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        bool clean = true;
        for (const auto link : candidates[c]->links)
          if (dead.contains(link)) {
            clean = false;
            break;
          }
        if (clean) {
          candidates.erase(candidates.begin() +
                           static_cast<std::ptrdiff_t>(c));
          found = true;
          break;
        }
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

RecoveryResult run_with_recovery(Pipeline& pipeline,
                                 std::span<const sim::Message> messages,
                                 const sim::FaultTimeline& faults,
                                 const RecoveryParams& params,
                                 obs::Trace* trace) {
  if (params.max_rounds < 1)
    throw std::invalid_argument("run_with_recovery: max_rounds < 1");
  if (params.detection_slots < 0)
    throw std::invalid_argument("run_with_recovery: negative detection_slots");
  if (params.recompile_slots < 0)
    throw std::invalid_argument("run_with_recovery: negative recompile_slots");
  if (params.reconfig.latency < 0)
    throw std::invalid_argument("run_with_recovery: negative reconfig latency");

  const auto& net = pipeline.network();
  RecoveryResult out;
  out.messages.assign(messages.size(), sim::CompiledMessageStats{});
  for (auto& stats : out.messages) stats.completed = -1;
  if (messages.empty()) return out;

  // Indices (into `messages`) still awaiting delivery.
  std::vector<std::size_t> pending(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) pending[i] = i;

  std::int64_t clock = 0;
  core::Schedule schedule;
  for (int round = 1; !pending.empty(); ++round) {
    // Build the round's schedule.  Round 1 is the ordinary fault-blind
    // compile; recovery rounds first weigh *reusing* the previous round's
    // schedule (viable and cheaper under the R cost model), else reroute
    // around the links dead *now* (a flap that has since repaired no
    // longer constrains routing) and recompile.
    core::RequestSet pattern;
    pattern.reserve(pending.size());
    for (const auto i : pending) pattern.push_back(messages[i].request);

    int rerouted = 0;
    bool reused = false;
    if (round == 1) {
      // Null counters: concurrent callers (sweep cells) share the pipeline.
      schedule = pipeline.compile_phase(pattern, nullptr).phase.schedule;
    } else {
      if (params.reuse_schedules && params.reconfig.latency > 0 &&
          schedule.degree() > 0) {
        // Reuse decision, taken before paying for a recompile.  The fresh
        // side is estimated by the rerouted pattern's degree lower bound —
        // an estimate that can only flatter fresh, so a reuse verdict
        // survives the true fresh degree.
        const auto dead_now = faults.dead_links(net.link_count(), clock);
        if (covers_pattern(schedule, pattern, dead_now)) {
          const auto plan =
              sched::try_route_around_faults(net, pattern, dead_now);
          if (plan.complete()) {
            const int fresh_lb =
                sched::multiplexing_lower_bound(net, plan.paths);
            std::int64_t horizon = 0;
            for (const auto i : pending)
              horizon = std::max(horizon, messages[i].slots);
            const auto decision =
                sched::decide_reuse(params.reconfig.latency, schedule.degree(),
                                    fresh_lb, horizon);
            ++out.reuse_decisions;
            if (decision.reuse) {
              reused = true;
              out.reconfig_slots_paid += decision.reuse_cost;
            }
          }
        }
      }
      if (!reused) {
        // Recompilation penalty, paid before the reschedule it buys.
        ++out.faults.recompiles;
        if (trace)
          trace->span(trace->track("recovery"), "recompile", "recompile",
                      clock, clock + params.recompile_slots);
        out.faults.added_latency_slots += params.recompile_slots;
        clock += params.recompile_slots;

        const auto dead = faults.dead_links(net.link_count(), clock);
        auto plan = sched::try_route_around_faults(net, pattern, dead);
        if (!plan.unroutable.empty()) {
          // No route on the surviving topology: report, drop from pending.
          std::vector<std::size_t> routable;
          routable.reserve(plan.routed.size());
          for (const auto local : plan.unroutable) {
            const auto i = pending[static_cast<std::size_t>(local)];
            out.messages[i].outcome = sim::MessageOutcome::kFailed;
            ++out.faults.messages_failed;
          }
          for (const auto local : plan.routed)
            routable.push_back(pending[static_cast<std::size_t>(local)]);
          pending = std::move(routable);
          if (pending.empty()) break;
        }
        rerouted = plan.rerouted;
        schedule = sched::coloring_paths(net, plan.paths);

        // Register-load bill of switching the fabric to the fresh
        // schedule; 0 in the paper's free-reconfiguration model, so the
        // R=0 loop is byte-identical to the pre-R one.
        const auto load = sched::fresh_load_cost(params.reconfig.latency,
                                                 schedule.degree());
        if (load > 0) {
          if (trace)
            trace->span(trace->track("recovery"), "load registers",
                        "reconfig", clock, clock + load);
          out.faults.added_latency_slots += load;
          out.reconfig_slots_paid += load;
          clock += load;
        }
      }
    }

    // Transmit the round against the shared timeline.  Under a nonzero R
    // the round's frames also pay the schedule's own transition stalls
    // (empty plan at R=0: byte-identical parameters).
    sim::CompiledParams round_params = params.sim;
    if (params.reconfig.latency > 0) {
      const auto plan =
          sched::plan_reconfiguration(net, schedule, params.reconfig);
      round_params.stall_slots = plan.stall_before;
    }
    std::vector<sim::Message> batch;
    batch.reserve(pending.size());
    for (const auto i : pending) batch.push_back(messages[i]);
    sim::SimOptions round_options;
    round_options.faults = &faults;
    round_options.start_slot = clock;
    const auto run =
        sim::simulate_compiled(schedule, batch, round_params, round_options);
    if (trace)
      trace->span(trace->track("recovery"),
                  "round " + std::to_string(round), "round", clock,
                  clock + run.total_slots,
                  {{"degree", std::to_string(run.degree)},
                   {"carried", std::to_string(batch.size())},
                   {"payloads_lost",
                    std::to_string(run.faults.payloads_lost)},
                   {"rerouted", std::to_string(rerouted)}});

    RecoveryRound record;
    record.start_slot = clock;
    record.degree = run.degree;
    record.carried = static_cast<int>(batch.size());
    record.payloads_lost = run.faults.payloads_lost;
    record.rerouted = rerouted;
    record.reused = reused;
    out.rounds.push_back(record);
    out.faults.payloads_lost += run.faults.payloads_lost;
    if (run.faults.payloads_lost > 0) ++out.faults.degraded_frames;

    std::vector<std::size_t> still_lost;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const auto i = pending[j];
      const auto& stats = run.messages[j];
      if (stats.outcome == sim::MessageOutcome::kDelivered) {
        out.messages[i] = stats;
        out.messages[i].completed = clock + stats.completed;
      } else {
        out.messages[i].slot = stats.slot;
        out.messages[i].outcome = stats.outcome;
        out.messages[i].payloads_lost += stats.payloads_lost;
        still_lost.push_back(i);
      }
    }
    clock += run.total_slots;
    pending = std::move(still_lost);

    if (pending.empty()) break;
    if (round == params.max_rounds) {
      out.faults.messages_lost += static_cast<std::int64_t>(pending.size());
      break;
    }

    // Detection latency before the next round's reuse-or-recompile
    // decision; the recompile penalty itself is charged by the branch
    // that actually recompiles.
    if (trace)
      trace->span(trace->track("recovery"), "detect", "detection", clock,
                  clock + params.detection_slots);
    out.faults.added_latency_slots += params.detection_slots;
    clock += params.detection_slots;
  }

  out.total_slots = clock;
  return out;
}

}  // namespace optdm::apps
