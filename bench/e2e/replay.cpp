// The traced run: a workload's seeded inputs replayed in-process through
// each layer's public functions, in the order optdm_served calls them,
// with a span around every call.  Nothing under src/ is instrumented, so
// the request path is re-enacted here from its public parts —
// Server::execute, Engine::compile / Engine::simulate, Pipeline::
// compile_phase, CommCompiler::compile — over pipes standing in for the
// sockets and a real svc::JobQueue with the daemon's two workers.
//
// The replay runs twice on the same inputs: recording on, then off.  The
// first run's spans give the per-layer metrics and its outputs must
// reproduce the untraced run's digest; the difference in mean latency
// between the two is the tracing overhead.

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "aapc/ring_schedule.hpp"
#include "aapc/torus_aapc.hpp"
#include "apps/sched_cache.hpp"
#include "inputs.hpp"
#include "io/cache_io.hpp"
#include "io/pattern_io.hpp"
#include "obs/report.hpp"
#include "patterns/named.hpp"
#include "sched/bounds.hpp"
#include "sched/combined.hpp"
#include "sched/scheduler.hpp"
#include "sim/compiled.hpp"
#include "sim/dynamic.hpp"
#include "sim/faults.hpp"
#include "sim/multihop.hpp"
#include "svc/api.hpp"
#include "svc/queue.hpp"
#include "svc/serialize.hpp"
#include "svc/wire.hpp"
#include "topo/factory.hpp"
#include "tracer.hpp"
#include "util/failure.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace optdm::bench {

namespace {

using Span = Tracer::Span;

/// Cold stores also committed to a disk-backed cache (fsync included) to
/// time the disk tier; bounded because deleting the fsync'd entries
/// afterwards costs ~65 ms each on an ext4 `discard` mount.
constexpr int kDiskCommitSamples = 32;
constexpr int kSmokeDiskCommitSamples = 4;
/// Requests whose re-enacted response is compared with svc::Engine's.
constexpr std::size_t kFidelitySamples = 8;

/// What Engine::resolve keeps per topology: the network, the AAPC
/// decomposition CommCompiler precomputes, and the shared cache.
struct Substrate {
  std::unique_ptr<topo::TorusNetwork> net;
  std::unique_ptr<aapc::TorusAapc> aapc;
  std::unique_ptr<apps::ScheduleCache> cache;
  std::unique_ptr<apps::ScheduleCache> disk;
  /// The healthy-fabric timeline SweepRunner hands every dynamic cell.
  sim::FaultTimeline healthy;
};

/// A cold compilation, kept for the disk-tier probe after the response.
struct Fresh {
  Substrate* substrate = nullptr;
  apps::CacheKey key;
  apps::CachedCompilation value;
};

/// The daemon's engine and request path, re-enacted with spans.
class InProcess {
 public:
  InProcess(std::string disk_dir, int disk_samples)
      : disk_dir_(std::move(disk_dir)), disk_samples_(disk_samples) {}

  /// Engine::resolve: parse, registry lookup, map lookup; builds the
  /// substrate on first use (the ring schedules and AAPC decomposition).
  Substrate& resolve(const std::string& topology, const std::string& scheduler) {
    const auto spec = topo::parse_topology_spec(topology);
    sched::registry().at(scheduler);
    const std::string key = "torus:" + std::to_string(spec.cols) + "x" +
                            std::to_string(spec.rows) + "|" + scheduler;
    std::lock_guard lock(mutex_);
    auto& slot = substrates_[key];
    if (slot) return *slot;
    slot = std::make_unique<Substrate>();
    slot->net = std::make_unique<topo::TorusNetwork>(spec.cols, spec.rows);
    {
      Span s("aapc.ring_schedule");
      aapc::RingSchedule::for_size(spec.cols);
      aapc::RingSchedule::for_size(spec.rows);
    }
    {
      Span s("aapc.torus_aapc");
      slot->aapc = std::make_unique<aapc::TorusAapc>(*slot->net);
    }
    apps::ScheduleCache::Options options;
    options.capacity = 256;
    options.shards = 8;
    options.keep_text = true;
    slot->cache = std::make_unique<apps::ScheduleCache>(*slot->net, options);
    options.disk_dir = disk_dir_;
    slot->disk = std::make_unique<apps::ScheduleCache>(*slot->net, options);
    slot->healthy = sim::random_fault_timeline(*slot->net, sim::FaultSpec{});
    return *slot;
  }

  /// Pipeline::compile_phase over the shared cache; a miss runs the cold
  /// compile (CommCompiler::compile) and stores the result.
  apps::CachedCompilation compile_phase(Substrate& s,
                                        const core::RequestSet& pattern,
                                        obs::SchedCounters* counters,
                                        bool* hit, Fresh* fresh) {
    // Pipeline::compile_phase reads the cache counters around every call
    // for its quarantine accounting.
    const auto before = s.cache->stats();
    apps::CacheKey key;
    {
      Span span("apps.sched_cache.key");
      key = apps::make_cache_key(*s.net, pattern, "combined", sched::SchedOptions{});
    }
    std::optional<apps::CachedCompilation> found;
    {
      Span span("apps.sched_cache.lookup");
      found = s.cache->lookup(key);
    }
    *hit = found.has_value();
    apps::CachedCompilation value;
    if (found) {
      value = std::move(*found);
    } else {
      value = cold_compile(s, pattern, counters);
      {
        Span span("io.write_schedule");
        std::ostringstream text;
        io::write_schedule(text, *s.net, value.schedule);
        value.schedule_text = text.str();
      }
      {
        Span span("apps.sched_cache.store");
        s.cache->store(key, value);
      }
      // Copied only while disk samples are still wanted.
      if (fresh && Tracer::enabled() && disk_samples_.load() > 0)
        *fresh = Fresh{&s, key, value};
    }
    counters->cache_memory_hits = *hit ? 1 : 0;
    counters->cache_disk_hits = 0;
    counters->cache_misses = *hit ? 0 : 1;
    const auto after = s.cache->stats();
    if (after.disk_quarantined > before.disk_quarantined)
      counters->cache_quarantined = after.disk_quarantined - before.disk_quarantined;
    return value;
  }

  /// Engine::compile.
  svc::CompileResponse compile(const svc::CompileRequest& request, Fresh* fresh) {
    Span span("svc.engine.compile");
    Substrate& s = resolve(request.topology, request.scheduler);
    check_pattern(request.pattern, *s.net);
    obs::SchedCounters counters;
    bool hit = false;
    auto value = compile_phase(s, request.pattern, &counters, &hit, fresh);
    {
      Span v("core.schedule.validate");
      if (const auto err = value.schedule.validate_against(request.pattern))
        throw util::Failure(util::FailureCode::kSvcInternal, *err);
    }
    svc::CompileResponse response;
    response.degree = value.schedule.degree();
    response.lower_bound = value.lower_bound;
    response.winner = value.winner;
    response.cache_hit = hit;
    response.schedule_text = std::move(value.schedule_text);
    {
      Span r("obs.report_schedule");
      (void)obs::report_schedule(value.schedule, &counters);
    }
    return response;
  }

  /// Engine::simulate.
  svc::SimulateResponse simulate(const svc::SimulateRequest& request, Fresh* fresh) {
    Span span("svc.engine.simulate");
    Substrate& s = resolve(request.topology, request.scheduler);
    const topo::TorusNetwork& net = *s.net;
    check_pattern(request.pattern, net);
    const auto messages = sim::uniform_messages(request.pattern, request.slots);
    obs::SchedCounters counters;
    bool hit = false;
    const auto value = compile_phase(s, request.pattern, &counters, &hit, fresh);
    const auto& schedule = value.schedule;

    svc::SimulateResponse response;
    response.compiled.degree = schedule.degree();
    response.compiled.lower_bound = value.lower_bound;
    response.compiled.winner = value.winner;
    response.compiled.cache_hit = hit;
    obs::CapturingReportSink sink;
    sim::SimOptions options;
    options.counters = &counters;
    options.report = &sink;
    {
      Span c("sim.compiled");
      response.tdm_slots = sim::simulate_compiled(schedule, messages, {}, options).total_slots;
    }
    {
      Span c("sim.compiled");
      sim::CompiledParams wdm;
      wdm.channel = sim::ChannelKind::kWavelength;
      response.wdm_slots = sim::simulate_compiled(schedule, messages, wdm).total_slots;
    }
    {
      // The engine's per-request SweepRunner rebuilds the decomposition.
      Span a("aapc.torus_aapc");
      const aapc::TorusAapc rebuilt(net);
    }
    sim::SimOptions cell_options;
    cell_options.faults = &s.healthy;
    for (const int k : request.dynamic_ks) {
      sim::DynamicParams params;
      params.multiplexing_degree = k;
      sim::DynamicResult result;
      {
        Span d("sim.dynamic");
        result = sim::simulate_dynamic(net, messages, params, cell_options);
      }
      Tracer::value("sim.dynamic.retries_per_message",
                    static_cast<double>(result.total_retries) /
                        static_cast<double>(messages.size()));
      response.dynamic.push_back(
          {k, result.total_slots, result.total_retries, result.completed, false});
    }
    if (net.node_count() == 64) {
      response.has_paper_rows = true;
      core::Schedule full;
      {
        Span a("aapc.torus_aapc");
        full = aapc::TorusAapc(net).full_schedule();
      }
      {
        Span c("sim.compiled");
        response.aapc_slots = sim::simulate_compiled(full, messages).total_slots;
      }
      core::Schedule embedding;
      {
        Span h("sched.hypercube_combined");
        embedding = sched::combined(net, patterns::hypercube(net.node_count()));
      }
      Span m("sim.multihop");
      const auto hop =
          sim::simulate_multihop(embedding, messages, sim::hypercube_next_hop);
      response.multihop_degree = embedding.degree();
      response.multihop_slots = hop.total_slots;
      response.multihop_completed = hop.completed;
    }
    // The engine refreshes the captured report with the final counters.
    obs::RunReport report = sink.last();
    report.sched = counters;
    return response;
  }

  /// Server::execute: decode, run, encode.
  void execute(const svc::Frame& request, svc::Frame& response, Fresh* fresh) {
    response.id = request.id;
    if (request.type == svc::FrameType::kCompileRequest) {
      svc::CompileRequest decoded;
      {
        Span d("svc.serialize.decode_request");
        decoded = svc::decode_compile_request(request.payload);
      }
      const auto result = compile(decoded, fresh);
      response.type = svc::FrameType::kCompileResponse;
      Span e("svc.serialize.encode_response");
      response.payload = svc::encode(result);
    } else {
      svc::SimulateRequest decoded;
      {
        Span d("svc.serialize.decode_request");
        decoded = svc::decode_simulate_request(request.payload);
      }
      const auto result = simulate(decoded, fresh);
      response.type = svc::FrameType::kSimulateResponse;
      Span e("svc.serialize.encode_response");
      response.payload = svc::encode(result);
    }
  }

  /// The disk tier for a bounded sample of cold stores: the entry
  /// document alone, then a full commit (serialize, write, fsync, rename).
  void probe_disk(const Fresh& fresh) {
    if (!Tracer::enabled() || disk_samples_.fetch_sub(1) <= 0) return;
    {
      Span w("io.cache_io.write");
      io::CacheEntry entry{fresh.key.canonical(), fresh.value.lower_bound,
                           fresh.value.winner, fresh.value.schedule_text};
      std::ostringstream doc;
      io::write_cache_entry(doc, entry);
    }
    Span c("apps.sched_cache.disk_commit");
    fresh.substrate->disk->store(fresh.key, fresh.value);
  }

  apps::CacheStats cache_stats() {
    std::lock_guard lock(mutex_);
    apps::CacheStats total;
    for (const auto& [key, s] : substrates_) total += s->cache->stats();
    return total;
  }

 private:
  /// CommCompiler::compile: the combined scheduler, then the bounds.
  apps::CachedCompilation cold_compile(Substrate& s,
                                       const core::RequestSet& pattern,
                                       obs::SchedCounters* counters) {
    apps::CachedCompilation value;
    sched::CombinedResult result;
    {
      Span span("sched.combined");
      result = sched::combined_with_winner(*s.aapc, pattern, counters);
      // The phase timings become child spans: the coloring branch (route,
      // conflict graph, coloring) ran beside the ordered-AAPC branch.
      const std::int64_t start = span.start_ns();
      std::int64_t at = start;
      for (const auto& [name, ns] :
           {std::pair{"core.route_all", counters->route_ns},
            std::pair{"core.conflict_graph", counters->graph_build_ns},
            std::pair{"sched.coloring", counters->coloring_ns}}) {
        if (ns < 0) continue;
        Tracer::child(name, at, at + ns);
        at += ns;
      }
      if (counters->aapc_ns >= 0) {
        Tracer::child("sched.ordered_aapc", start, start + counters->aapc_ns, false);
        Tracer::cover(counters->aapc_ns - (at - start));
      }
    }
    Tracer::value("core.conflict_graph.edges",
                  static_cast<double>(counters->conflict_edges));
    {
      Span span("sched.bounds");
      const auto paths = core::route_all(*s.net, pattern);
      value.lower_bound = sched::multiplexing_lower_bound(*s.net, paths);
    }
    Tracer::value("sched.combined.aapc_wasted",
                  counters->coloring_degree <= value.lower_bound ? 1.0 : 0.0);
    value.schedule = std::move(result.schedule);
    value.winner = sched::to_string(result.winner);
    return value;
  }

  static void check_pattern(const core::RequestSet& pattern,
                            const topo::TorusNetwork& net) {
    for (const auto& request : pattern)
      if (request.src < 0 || request.src >= net.node_count() ||
          request.dst < 0 || request.dst >= net.node_count())
        throw util::Failure(util::FailureCode::kInvalidConfig,
                            "pattern references nodes outside " + net.name());
  }

  std::string disk_dir_;
  /// Disk commits still to sample.
  std::atomic<int> disk_samples_;
  std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Substrate>> substrates_;
};

/// A pipe standing in for one direction of a socket.  Sized so a whole
/// request frame fits: the client side writes it, then reads it back as
/// the daemon's connection reader, on one thread.
struct Pipe {
  int read = -1;
  int write = -1;
  Pipe() {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    read = fds[0];
    write = fds[1];
    if (::fcntl(write, F_SETPIPE_SZ, 1 << 20) < (1 << 20)) {
      ::close(read);
      ::close(write);
      throw std::runtime_error("cannot size a pipe to 1 MiB");
    }
  }
  ~Pipe() {
    ::close(read);
    close_write();
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// The reader sees end-of-stream once the written frames are consumed.
  void close_write() {
    if (write >= 0) ::close(write);
    write = -1;
  }
};

struct Connection {
  Pipe requests;
  Pipe responses;
  /// Workers finishing concurrently must not interleave response frames.
  std::mutex write_mutex;
};

/// Failed checks from the replay's threads, reported once it is done.
class Problems {
 public:
  void add(std::string what) {
    std::lock_guard lock(mutex_);
    list_.push_back(std::move(what));
  }
  void report_to(Report& report) const {
    for (const auto& what : list_) report.check(false, what);
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> list_;
};

/// One replay of a workload.
struct Phase {
  std::vector<double> latencies_ms;
  std::int64_t failed = 0;
  std::size_t queue_peak = 0;
  apps::CacheStats cache;
  /// Open loop: how late the sender was against each due time.
  std::vector<double> late_ms;
  /// Sweep: SweepRunner::run and run_sharded on the same grids.
  std::vector<double> run_ms;
  std::vector<double> run_sharded_ms;
  /// Share of the workers' time spent running jobs.
  double busy_frac = 0;
};

/// The daemon's worker pool: its job queue and what the jobs count.
struct Workers {
  svc::JobQueue queue{64};
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::int64_t> busy_ns{0};
  const Clock::time_point started = Clock::now();

  Workers() { queue.start(kWorkers); }

  /// Drains the queue and records its counters in `phase`.
  void finish(Phase& phase) {
    queue.stop(svc::JobQueue::StopMode::kDrain);
    phase.failed += failed;
    phase.queue_peak = queue.peak_depth();
    phase.busy_frac = static_cast<double>(busy_ns) /
                      (kWorkers * 1e9 * s_between(started, Clock::now()));
  }
};

/// The client half of one request: write the frame, read it back as the
/// daemon's connection reader, and queue the daemon's job — which runs
/// Server::execute and writes the response frame.
void submit(InProcess& daemon, Workers& workers, Connection& conn,
            const svc::Frame& frame) {
  {
    Span w("svc.wire.write_frame");
    svc::write_frame(conn.requests.write, frame);
  }
  std::optional<svc::Frame> in;
  {
    Span r("svc.wire.read_frame");
    in = svc::read_frame(conn.requests.read);
  }
  const auto pushed = Clock::now();
  try {
    workers.queue.push(svc::Priority::kNormal, [&daemon, &conn, &workers, pushed,
                                                request = std::move(*in)] {
    const auto started = Clock::now();
    Tracer::set_request(request.id);
    Tracer::value("svc.queue.wait_us",
                  std::chrono::duration<double, std::micro>(started - pushed).count());
    svc::Frame response;
    Fresh fresh;
    try {
      daemon.execute(request, response, &fresh);
    } catch (const std::exception& e) {
      ++workers.failed;
      response.type = svc::FrameType::kError;
      response.payload = svc::encode(svc::ErrorWire{"svc-internal", e.what()});
    }
    {
      std::lock_guard lock(conn.write_mutex);
      Span w("svc.wire.write_frame");
      svc::write_frame(conn.responses.write, response);
    }
    workers.busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - started)
                           .count();
    // After the response and outside the busy time: a side measurement.
    if (fresh.substrate) daemon.probe_disk(fresh);
    });
  } catch (const util::Failure& failure) {
    // A full queue: the daemon answers with an error frame.
    ++workers.failed;
    svc::Frame error;
    error.type = svc::FrameType::kError;
    error.id = frame.id;
    error.payload = svc::encode(
        svc::ErrorWire{std::string(util::to_string(failure.code())), failure.what()});
    std::lock_guard lock(conn.write_mutex);
    svc::write_frame(conn.responses.write, error);
  }
}

/// The client's read of one response frame; waiting for the daemon to
/// answer stays outside the span.
svc::Frame receive(Connection& conn) {
  pollfd ready{conn.responses.read, POLLIN, 0};
  while (::poll(&ready, 1, -1) < 0)
    if (errno != EINTR) throw std::runtime_error("poll failed");
  Span r("svc.wire.read_frame");
  auto frame = svc::read_frame(conn.responses.read);
  if (!frame) throw std::runtime_error("response pipe closed");
  return std::move(*frame);
}

void expect(const svc::Frame& frame, svc::FrameType type) {
  if (frame.type != type)
    throw std::runtime_error("error response: " +
                             svc::decode_error(frame.payload).message);
}

/// One closed-loop request: a key the workload knows it by, and its input.
struct Item {
  std::uint64_t key = 0;
  std::shared_ptr<const PatternInput> input;
};

/// `kConnections` closed-loop client threads until the window closes and
/// `more()` is false; `next(c)` gives connection c's next request and
/// `check` sees each response.
Phase closed_loop(InProcess& daemon, double seconds,
                  const std::function<Item(int)>& next,
                  const std::function<bool()>& more,
                  const std::function<void(const Item&, svc::CompileResponse)>& check) {
  Phase phase;
  // Connections outlive the workers: a job may still hold one when its
  // client has read the response.
  Connection conns[kConnections];
  Workers workers;
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::uint32_t> ids{0};
  std::mutex merge;
  std::vector<std::thread> clients;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  for (int c = 0; c < kConnections; ++c)
    clients.emplace_back([&, c] {
      Connection& conn = conns[c];
      std::vector<double> latencies;
      try {
        while (Clock::now() < deadline || more()) {
          const Item item = next(c);
          const auto sent = Clock::now();
          svc::Frame frame;
          frame.type = svc::FrameType::kCompileRequest;
          frame.id = ++ids;
          Tracer::set_request(frame.id);
          {
            Span e("svc.serialize.encode_request");
            frame.payload = svc::encode(compile_request(*item.input));
          }
          submit(daemon, workers, conn, frame);
          const auto response = receive(conn);
          expect(response, svc::FrameType::kCompileResponse);
          svc::CompileResponse decoded;
          {
            Span d("svc.serialize.decode_response");
            decoded = svc::decode_compile_response(response.payload);
          }
          latencies.push_back(ms_between(sent, Clock::now()));
          check(item, std::move(decoded));
        }
      } catch (const std::exception& e) {
        ++failed;
        std::cerr << "optdm_bench: replay client " << c << ": " << e.what() << '\n';
      }
      std::lock_guard lock(merge);
      phase.latencies_ms.insert(phase.latencies_ms.end(), latencies.begin(),
                                latencies.end());
    });
  for (auto& client : clients) client.join();
  workers.finish(phase);
  phase.failed += failed;
  phase.cache = daemon.cache_stats();
  return phase;
}

/// Re-enacted compiles must match the real svc::Engine byte for byte.
void check_fidelity(const std::vector<PatternInput>& inputs,
                    const std::vector<svc::CompileResponse>& replayed,
                    Problems& problems) {
  svc::Engine engine;
  for (std::size_t i = 0; i < std::min(inputs.size(), kFidelitySamples); ++i) {
    const auto real = engine.compile(compile_request(inputs[i]));
    if (real.schedule_text != replayed[i].schedule_text ||
        real.degree != replayed[i].degree ||
        real.lower_bound != replayed[i].lower_bound ||
        real.winner != replayed[i].winner)
      problems.add("replayed compile " + std::to_string(i) +
                   " differs from svc::Engine");
  }
}

std::string disk_dir(const RunConfig& config) {
  return config.work_dir + "/trace-disk-" + std::to_string(::getpid());
}

InProcess make_daemon(const RunConfig& config) {
  return InProcess(disk_dir(config),
                   config.smoke ? kSmokeDiskCommitSamples : kDiskCommitSamples);
}

/// Set-up: resolves the substrates with recording on (their build is
/// set-up cost worth a span), then compiles `inputs` with it off — the
/// priming compiles are not the steady state the layers describe.
std::vector<svc::CompileResponse> prime(InProcess& daemon,
                                        const std::vector<PatternInput>& inputs) {
  for (const auto& input : inputs) daemon.resolve(input.topology, "combined");
  const bool recording = Tracer::enabled();
  Tracer::set_enabled(false);
  std::vector<svc::CompileResponse> refs;
  for (const auto& input : inputs)
    refs.push_back(daemon.compile(compile_request(input), nullptr));
  Tracer::set_enabled(recording);
  return refs;
}

Phase replay_warm_hits(const RunConfig& config, double seconds,
                       Problems& problems, std::string* outputs) {
  InProcess daemon = make_daemon(config);
  const auto inputs = warm_hits_set(config.seed);
  const auto refs = prime(daemon, inputs);
  std::vector<std::shared_ptr<const PatternInput>> shared;
  for (const auto& input : inputs)
    shared.push_back(std::make_shared<const PatternInput>(input));
  std::vector<std::vector<std::size_t>> orders;
  for (int c = 0; c < kConnections; ++c)
    orders.push_back(walk_order(config.seed + static_cast<std::uint64_t>(c),
                                inputs.size()));
  std::vector<std::size_t> sent(kConnections, 0);
  std::atomic<std::int64_t> mismatched{0};
  auto phase = closed_loop(
      daemon, seconds,
      [&](int c) {
        const auto cu = static_cast<std::size_t>(c);
        const std::size_t i = orders[cu][sent[cu]++ % inputs.size()];
        return Item{i, shared[i]};
      },
      [] { return false; },
      [&](const Item& item, svc::CompileResponse r) {
        if (!r.cache_hit || r.schedule_text != refs[item.key].schedule_text)
          ++mismatched;
      });
  if (mismatched > 0)
    problems.add(std::to_string(mismatched.load()) +
                 " replayed warm responses were not byte-identical hits");
  phase.failed += mismatched;
  if (outputs) {
    for (const auto& r : refs) *outputs += r.schedule_text;
    check_fidelity(inputs, refs, problems);
  }
  return phase;
}

Phase replay_cold_compile(const RunConfig& config, double seconds,
                          Problems& problems, std::string* outputs) {
  InProcess daemon = make_daemon(config);
  prime(daemon, {PatternInput{"torus:8x8", 64, {{0, 1}}}});
  std::atomic<std::uint64_t> next{0};
  std::mutex merge;
  std::map<std::uint64_t, svc::CompileResponse> prefix;
  auto phase = closed_loop(
      daemon, seconds,
      [&](int) {
        const std::uint64_t i = next++;
        return Item{i, std::make_shared<const PatternInput>(cold_pattern(config.seed, i))};
      },
      // Only the recording run must reach the digest prefix.
      [&] { return outputs && next.load() < kColdPrefix; },
      [&](const Item& item, svc::CompileResponse r) {
        if (r.cache_hit) problems.add("replayed cold compile was a cache hit");
        if (item.key >= kColdPrefix) return;
        std::lock_guard lock(merge);
        prefix.emplace(item.key, std::move(r));
      });
  if (outputs) {
    std::vector<PatternInput> inputs;
    std::vector<svc::CompileResponse> responses;
    int below = 0;
    for (const auto& [index, r] : prefix) {
      inputs.push_back(cold_pattern(config.seed, index));
      const auto why = check_schedule(network_for(inputs.back().topology),
                                      inputs.back().pattern, r.schedule_text,
                                      r.degree, r.lower_bound, &below);
      if (!why.empty()) problems.add("replayed cold pattern " + std::to_string(index) + ": " + why);
      *outputs += r.schedule_text;
      responses.push_back(r);
    }
    if (prefix.size() != kColdPrefix) problems.add("replayed cold prefix incomplete");
    check_fidelity(inputs, responses, problems);
  }
  return phase;
}

Phase replay_mixed_traffic(const RunConfig& config, double seconds,
                           Problems& problems, std::string* outputs) {
  InProcess daemon = make_daemon(config);
  const auto warm = mixed_warm_set(config.seed);
  const auto refs = prime(daemon, warm);
  const auto arrivals = mixed_arrivals(config.seed, kMixedRatePerS, seconds);
  const std::size_t n = arrivals.size();

  Phase phase;
  Connection conns[kConnections];
  Workers workers;
  std::vector<Clock::time_point> due(n);
  std::vector<double> latency_ms(n, std::nan(""));
  std::vector<std::string> sim_lines(n);
  std::vector<std::string> cold_texts(n);

  auto receiver = [&](int c) {
    try {
      for (std::size_t i = static_cast<std::size_t>(c); i < n; i += kConnections) {
        const auto frame = receive(conns[c]);
        const auto done = Clock::now();
        const std::size_t k = frame.id - 1;
        if (k >= n) throw std::runtime_error("response with unknown id");
        Tracer::set_request(frame.id);
        if (frame.type == svc::FrameType::kError) {
          // A refused or failed arrival keeps no latency and counts as
          // failed below; the stream goes on.
          problems.add("replayed arrival " + std::to_string(k) + ": " +
                       svc::decode_error(frame.payload).message);
          continue;
        }
        latency_ms[k] = ms_between(due[k], done);
        const Arrival& a = arrivals[k];
        if (a.kind == Arrival::Kind::kSimulate) {
          expect(frame, svc::FrameType::kSimulateResponse);
          svc::SimulateResponse r;
          {
            Span d("svc.serialize.decode_response");
            r = svc::decode_simulate_response(frame.payload);
          }
          bool complete = false;
          sim_lines[k] = simulate_line(r, complete);
          if (!complete) problems.add("replayed simulate incomplete: " + sim_lines[k]);
          continue;
        }
        expect(frame, svc::FrameType::kCompileResponse);
        svc::CompileResponse r;
        {
          Span d("svc.serialize.decode_response");
          r = svc::decode_compile_response(frame.payload);
        }
        if (a.kind == Arrival::Kind::kCold) {
          cold_texts[k] = std::move(r.schedule_text);
        } else if (r.schedule_text != refs[a.index].schedule_text) {
          problems.add("replayed warm response differs from the primed schedule");
        }
      }
    } catch (const std::exception& e) {
      // The unanswered arrivals count as failed below.  The stream is
      // drained until it ends, so no worker blocks on a full pipe.
      problems.add(std::string("replay receiver: ") + e.what());
      char sink[1 << 16];
      while (::read(conns[c].responses.read, sink, sizeof sink) > 0) {
      }
    }
  };

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i)
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrivals[i].due_s));
  std::vector<std::thread> receivers;
  for (int c = 0; c < kConnections; ++c) receivers.emplace_back(receiver, c);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const Arrival& a = arrivals[i];
      std::this_thread::sleep_until(due[i]);
      phase.late_ms.push_back(ms_between(due[i], Clock::now()));
      svc::Frame frame;
      frame.id = static_cast<std::uint32_t>(i + 1);
      Tracer::set_request(frame.id);
      const PatternInput input =
          a.kind == Arrival::Kind::kCold ? mixed_cold_pattern(config.seed, a.index)
                                         : warm[a.index];
      {
        Span e("svc.serialize.encode_request");
        if (a.kind == Arrival::Kind::kSimulate) {
          frame.type = svc::FrameType::kSimulateRequest;
          frame.payload = svc::encode(simulate_request(input));
        } else {
          frame.type = svc::FrameType::kCompileRequest;
          frame.payload = svc::encode(compile_request(input));
        }
      }
      submit(daemon, workers, conns[i % kConnections], frame);
    }
  } catch (const std::exception& e) {
    problems.add(std::string("replay sender: ") + e.what());
  }
  // Once every queued job has answered, end the response streams: a
  // receiver still waiting for an unsent arrival then stops.
  workers.finish(phase);
  for (auto& conn : conns) conn.responses.close_write();
  for (auto& r : receivers) r.join();

  for (const double ms : latency_ms)
    if (!std::isnan(ms)) phase.latencies_ms.push_back(ms);
  phase.failed += static_cast<std::int64_t>(n - phase.latencies_ms.size());
  phase.cache = daemon.cache_stats();
  if (outputs) {
    // The same order as the untraced run: warm set, cold prefix by index,
    // then the first simulates.
    for (const auto& r : refs) *outputs += r.schedule_text;
    std::vector<std::string> cold_prefix(kMixedPrefix);
    std::vector<std::string> sim_prefix;
    for (std::size_t i = 0; i < n; ++i) {
      const Arrival& a = arrivals[i];
      if (a.kind == Arrival::Kind::kCold && a.index < kMixedPrefix)
        cold_prefix[a.index] = cold_texts[i];
      else if (a.kind == Arrival::Kind::kSimulate && sim_prefix.size() < kMixedPrefix)
        sim_prefix.push_back(sim_lines[i]);
    }
    for (const auto& text : cold_prefix) *outputs += text;
    for (const auto& line : sim_prefix) *outputs += line;
    check_fidelity(warm, refs, problems);
  }
  return phase;
}

Phase replay_sweep(const RunConfig& config, double seconds, Problems& problems,
                   std::string* outputs) {
  InProcess daemon = make_daemon(config);
  Substrate& s = daemon.resolve("torus:8x8", "combined");
  const auto phases = table5_phases();
  std::vector<apps::SweepGrid> grids;
  for (std::size_t op = 0; op < kSweepCycle; ++op)
    grids.push_back(sweep_grid(phases, config.seed, op));
  apps::SweepRunner runner(*s.net);
  {
    const bool recording = Tracer::enabled();
    Tracer::set_enabled(false);
    for (const auto& phase : phases) {
      obs::SchedCounters counters;
      bool hit = false;
      daemon.compile_phase(s, phase.pattern(), &counters, &hit, nullptr);
      runner.pipeline().compile_phase(phase.pattern());
    }
    Tracer::set_enabled(recording);
  }
  apps::ShardOptions shards;
  shards.shards = 2;
  sim::SimOptions cell_options;
  cell_options.faults = &s.healthy;

  Phase result;
  const auto started = Clock::now();
  for (std::size_t op = 0;
       op < kSweepPrefix || s_between(started, Clock::now()) < seconds; ++op) {
    const auto& grid = grids[op % kSweepCycle];
    Tracer::set_request(op + 1);
    const auto sent = Clock::now();
    // SweepRunner's stages re-enacted: compile each phase through the
    // cache, then every cell in grid order (serially, unlike the pool).
    std::vector<apps::CachedCompilation> compiled;
    {
      Span stage("apps.sweep.compile_stage");
      for (const auto& phase : grid.phases) {
        obs::SchedCounters counters;
        bool hit = false;
        compiled.push_back(daemon.compile_phase(s, phase.pattern(), &counters, &hit, nullptr));
      }
    }
    std::ostringstream replayed;
    {
      Span stage("apps.sweep.simulate_stage");
      for (std::size_t p = 0; p < grid.phases.size(); ++p) {
        Span c("sim.compiled");
        const auto r = sim::simulate_compiled(compiled[p].schedule, grid.phases[p].messages);
        replayed << 'c' << compiled[p].schedule.degree() << ':' << r.total_slots << ' ';
      }
      for (const auto& phase : grid.phases)
        for (const auto& variant : grid.dynamic)
          for (const auto seed : grid.seeds) {
            auto params = variant.params;
            params.seed = seed;
            sim::DynamicResult r;
            {
              Span d("sim.dynamic");
              r = sim::simulate_dynamic(*s.net, phase.messages, params, cell_options);
            }
            Tracer::value("sim.dynamic.retries_per_message",
                          static_cast<double>(r.total_retries) /
                              static_cast<double>(phase.messages.size()));
            replayed << 'd' << r.total_slots << '/' << r.total_retries << ' ';
          }
    }
    auto t = Clock::now();
    apps::SweepResult unsharded;
    {
      Span r("apps.sweep.run");
      unsharded = runner.run(grid);
    }
    result.run_ms.push_back(ms_between(t, Clock::now()));
    t = Clock::now();
    apps::SweepResult sharded;
    {
      Span r("apps.sweep.run_sharded");
      sharded = runner.run_sharded(grid, shards);
    }
    result.run_sharded_ms.push_back(ms_between(t, Clock::now()));
    result.latencies_ms.push_back(ms_between(sent, Clock::now()));

    const auto line = cells_line(sharded);
    if (line != replayed.str() || line != cells_line(unsharded))
      problems.add("sweep op " + std::to_string(op) +
                   ": replayed, run and run_sharded cells differ");
    if (outputs && op < kSweepPrefix) *outputs += line;
  }
  result.cache = daemon.cache_stats();
  return result;
}

/// How a per-layer metric is derived from the recorded spans.
enum class From { kMean, kSelf, kTotal, kValueMean, kValueP50, kValueP99 };

/// One per-layer metric: its span (or value series), unit, and the
/// end-to-end metrics it should move, as `metric@workload` (README).
struct LayerMetric {
  const char* metric;
  const char* layer;
  const char* unit;
  From from;
  const char* moves;
};

constexpr const char* kWarmPath = "throughput_per_s@warm_hits,latency_p50_ms@warm_hits";
constexpr const char* kWarmLatency = "latency_p50_ms@warm_hits";
constexpr const char* kColdPath = "latency_p50_ms@cold_compile,latency_tail_ms@cold_compile";
constexpr const char* kMixedTail = "latency_tail_ms@mixed_traffic";
constexpr const char* kSweep = "throughput_per_s@sweep,latency_p50_ms@sweep";

/// Per-layer metrics derived from spans; `report_layers` adds the rest.
constexpr LayerMetric kLayerMetrics[] = {
    {"svc.wire.read_frame_us", "svc.wire.read_frame", "us", From::kMean, kWarmPath},
    {"svc.wire.write_frame_us", "svc.wire.write_frame", "us", From::kMean, kWarmPath},
    {"svc.serialize.encode_request_us", "svc.serialize.encode_request", "us", From::kMean, kWarmPath},
    {"svc.serialize.decode_request_us", "svc.serialize.decode_request", "us", From::kMean, kWarmPath},
    {"svc.serialize.encode_response_us", "svc.serialize.encode_response", "us", From::kMean, kWarmPath},
    {"svc.serialize.decode_response_us", "svc.serialize.decode_response", "us", From::kMean, kWarmPath},
    {"svc.engine.compile_us", "svc.engine.compile", "us", From::kMean, kWarmLatency},
    {"svc.engine.self_us", "svc.engine.compile", "us", From::kSelf, kWarmLatency},
    {"svc.engine.simulate_ms", "svc.engine.simulate", "ms", From::kMean, kMixedTail},
    {"apps.sched_cache.key_us", "apps.sched_cache.key", "us", From::kMean, kWarmLatency},
    {"apps.sched_cache.lookup_us", "apps.sched_cache.lookup", "us", From::kMean, kWarmLatency},
    {"core.schedule.validate_us", "core.schedule.validate", "us", From::kMean, kWarmLatency},
    {"obs.report_schedule_us", "obs.report_schedule", "us", From::kMean, kWarmLatency},
    {"svc.queue.wait_p50_us", "svc.queue.wait_us", "us", From::kValueP50, kMixedTail},
    {"svc.queue.wait_p99_us", "svc.queue.wait_us", "us", From::kValueP99, kMixedTail},
    {"core.route_all_us", "core.route_all", "us", From::kMean, kColdPath},
    {"core.conflict_graph_ms", "core.conflict_graph", "ms", From::kMean, kColdPath},
    {"core.conflict_graph.edges", "core.conflict_graph.edges", "count", From::kValueMean, kColdPath},
    {"sched.coloring_ms", "sched.coloring", "ms", From::kMean, kColdPath},
    {"sched.ordered_aapc_ms", "sched.ordered_aapc", "ms", From::kMean, kColdPath},
    {"sched.combined_ms", "sched.combined", "ms", From::kMean, kColdPath},
    {"sched.combined.aapc_wasted_frac", "sched.combined.aapc_wasted", "ratio", From::kValueMean,
     "throughput_per_s@cold_compile"},
    {"sched.bounds_us", "sched.bounds", "us", From::kMean, kColdPath},
    {"io.write_schedule_us", "io.write_schedule", "us", From::kMean, "latency_p50_ms@cold_compile"},
    {"apps.sched_cache.store_us", "apps.sched_cache.store", "us", From::kMean,
     "latency_p50_ms@cold_compile"},
    // The e2e daemons keep their cache in memory (see service_workloads.cpp).
    {"io.cache_io.write_us", "io.cache_io.write", "us", From::kMean, "none"},
    {"apps.sched_cache.disk_commit_ms", "apps.sched_cache.disk_commit", "ms", From::kMean, "none"},
    {"aapc.ring_schedule_ms", "aapc.ring_schedule", "ms", From::kTotal, "setup_s@mixed_traffic"},
    {"aapc.torus_aapc_ms", "aapc.torus_aapc", "ms", From::kMean,
     "setup_s@mixed_traffic,latency_tail_ms@mixed_traffic"},
    {"sched.hypercube_combined_ms", "sched.hypercube_combined", "ms", From::kMean, kMixedTail},
    {"sim.compiled_us", "sim.compiled", "us", From::kMean, kMixedTail},
    {"sim.multihop_ms", "sim.multihop", "ms", From::kMean, kMixedTail},
    {"sim.dynamic_ms", "sim.dynamic", "ms", From::kMean,
     "throughput_per_s@sweep,latency_p50_ms@sweep,latency_tail_ms@mixed_traffic"},
    {"sim.dynamic.retries_per_message", "sim.dynamic.retries_per_message", "ratio",
     From::kValueMean, "throughput_per_s@sweep,latency_tail_ms@mixed_traffic"},
    {"apps.sweep.compile_stage_ms", "apps.sweep.compile_stage", "ms", From::kMean, kSweep},
    {"apps.sweep.simulate_stage_ms", "apps.sweep.simulate_stage", "ms", From::kMean, kSweep},
};

double span_metric(const LayerMetric& m, const LayerStats& stats, std::size_t& count) {
  const double scale = std::string_view(m.unit) == "ms" ? 1e6 : 1e3;
  const double calls = static_cast<double>(std::max<std::int64_t>(stats.count, 1));
  count = static_cast<std::size_t>(stats.count);
  switch (m.from) {
    case From::kMean: return stats.total_ns / calls / scale;
    case From::kSelf: return stats.self_ns / calls / scale;
    case From::kTotal: return stats.total_ns / scale;
    case From::kValueMean: count = stats.values.size(); return mean_of(stats.values);
    case From::kValueP50: count = stats.values.size(); return util::percentile(stats.values, 50);
    case From::kValueP99: count = stats.values.size(); return util::percentile(stats.values, 99);
  }
  return 0;
}

/// Prints every per-layer metric.  A layer the workload never reaches
/// reads 0 with count 0.
void report_layers(Report& report, const Phase& traced, const Phase& untraced) {
  const auto layers = Tracer::layers();
  for (const auto& m : kLayerMetrics) {
    const auto it = layers.find(m.layer);
    std::size_t count = 0;
    const double value = it == layers.end() ? 0.0 : span_metric(m, it->second, count);
    report.per_layer(m.metric, value, m.unit, count, m.moves);
  }
  const auto lookups = traced.cache.hits() + traced.cache.misses;
  report.per_layer("apps.sched_cache.hit_ratio",
                   lookups ? static_cast<double>(traced.cache.hits()) /
                                 static_cast<double>(lookups)
                           : 0.0,
                   "ratio", static_cast<std::size_t>(lookups), kMixedTail);
  report.per_layer("svc.queue.depth_peak", static_cast<double>(traced.queue_peak),
                   "count", 1, kMixedTail);
  report.per_layer("svc.queue.busy_frac", traced.busy_frac, "ratio", 1, kMixedTail);
  report.per_layer("apps.sweep.shard_io_ms",
                   traced.run_ms.empty() ? 0.0
                                         : mean_of(traced.run_sharded_ms) -
                                               mean_of(traced.run_ms),
                   "ms", traced.run_ms.size(), kSweep);
  report.per_layer("bench.generator_late_p99_ms",
                   traced.late_ms.empty() ? 0.0 : util::percentile(traced.late_ms, 99),
                   "ms", traced.late_ms.size(), "validity@mixed_traffic");
  // Recording on against recording off, same inputs: what the spans cost.
  const double on = mean_of(traced.latencies_ms);
  const double off = mean_of(untraced.latencies_ms);
  report.per_layer("bench.trace_overhead_pct", off > 0 ? 100.0 * (on - off) / off : 0.0,
                   "%", traced.latencies_ms.size() + untraced.latencies_ms.size(),
                   "none");
}

}  // namespace

void run_traced(const RunConfig& config, Report& report) {
  using Replay = Phase (*)(const RunConfig&, double, Problems&, std::string*);
  const std::map<std::string, Replay> replays = {
      {"warm_hits", replay_warm_hits},
      {"cold_compile", replay_cold_compile},
      {"mixed_traffic", replay_mixed_traffic},
      {"sweep", replay_sweep}};
  const auto it = replays.find(config.workload);
  if (it == replays.end())
    throw std::runtime_error("unknown workload '" + config.workload + "'");

  Problems problems;
  std::string outputs;
  Tracer::reset();
  Tracer::set_enabled(true);
  // Recording on, then off, each for half the window (a smoke run's
  // window is already short).
  const double window = config.smoke ? config.seconds : config.seconds / 2;
  const Phase traced = it->second(config, window, problems, &outputs);
  Tracer::set_enabled(false);
  const Phase untraced = it->second(config, window, problems, nullptr);
  std::filesystem::remove_all(disk_dir(config));

  Tracer::write(config.trace_dir);
  report_layers(report, traced, untraced);
  report.out() << "trace " << config.trace_dir << "/trace.json "
               << config.trace_dir << "/layers.json\n";
  problems.report_to(report);
  report.attempted = static_cast<std::int64_t>(traced.latencies_ms.size() +
                                               untraced.latencies_ms.size()) +
                     traced.failed + untraced.failed;
  report.failed = traced.failed + untraced.failed;
  report.check(report.failed == 0,
               std::to_string(report.failed) + " replayed requests failed");
  report.digest(config, outputs);
}

}  // namespace optdm::bench
