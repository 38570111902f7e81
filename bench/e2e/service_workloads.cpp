// The three service workloads: optdm_served is spawned as a child process
// and driven over TCP exactly as a client would drive it.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "daemon.hpp"
#include "inputs.hpp"
#include "svc/client.hpp"
#include "svc/serialize.hpp"
#include "svc/wire.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace optdm::bench {

namespace {

/// The independent schedule checks of one run.
struct ScheduleChecks {
  std::size_t checked = 0;
  int below_reported_lb = 0;

  /// Checks one compile response; returns "" when valid.
  std::string operator()(const PatternInput& input,
                         const svc::CompileResponse& response) {
    ++checked;
    return check_schedule(network_for(input.topology), input.pattern,
                          response.schedule_text, response.degree,
                          response.lower_bound, &below_reported_lb);
  }

  void report_to(Report& report) const {
    report.extra("below_reported_lb", below_reported_lb, "count", checked);
  }
};

/// Set-up: spawn the daemon `reps` times, each time running `prime` on
/// it, and keep the last one.  `setup_s` is the median spawn-to-ready
/// time.
///
/// The daemons keep their schedule cache in memory only: every on-disk
/// entry is fsync'd, and removing fsync'd files costs ~65 ms each on an
/// ext4 `discard` mount, so the ~2400 entries of one cold run could not
/// be cleaned up within the run.  The traced run times the disk tier.
std::unique_ptr<Daemon> set_up(
    const RunConfig& config, Report& report, int reps,
    const std::function<void(Daemon&, int rep)>& prime) {
  std::vector<double> samples;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < reps; ++rep) {
    const auto started = Clock::now();
    daemon = std::make_unique<Daemon>(config.bin_dir + "/optdm_served");
    prime(*daemon, rep);
    samples.push_back(s_between(started, Clock::now()));
    if (rep + 1 < reps) daemon->shutdown();
  }
  report.metric("setup_s", util::percentile(samples, 50), "s", samples.size());
  return daemon;
}

/// Final daemon checks and metrics: its own counters must agree with the
/// client's, then it shuts down cleanly.
void finish(Daemon& daemon, Report& report, std::int64_t expected_ok) {
  const auto stats = daemon.stats();
  report.metric("peak_rss_mb", peak_rss_mib(daemon.pid()), "MiB", 1);
  report.extra("daemon_queue_peak", static_cast<double>(stats.queue_peak),
               "count", 1);
  report.extra("daemon_cache_hit_rate", stats.cache_hit_rate, "ratio",
               static_cast<std::size_t>(stats.cache_memory_hits +
                                        stats.cache_disk_hits +
                                        stats.cache_misses));
  report.check(stats.failed == 0 && stats.rejected_queue_full == 0,
               "daemon counted " + std::to_string(stats.failed) +
                   " failed requests");
  report.check(stats.ok == expected_ok,
               "daemon counted " + std::to_string(stats.ok) +
                   " ok requests, client saw " + std::to_string(expected_ok));
  daemon.shutdown();
}

/// Throughput, median latency and the workload's `tail` percentile.
void report_latency(Report& report, std::size_t completed, double elapsed_s,
                    const std::vector<double>& latencies_ms, double tail) {
  report.metric("throughput_per_s", static_cast<double>(completed) / elapsed_s,
                "1/s", completed);
  report.percentile("latency_p50_ms", latencies_ms, 50, "ms");
  report.percentile("latency_tail_ms", latencies_ms, tail, "ms");
}

void report_degree(Report& report, const std::vector<svc::CompileResponse>& all) {
  double degree = 0;
  double bound = 0;
  for (const auto& r : all) {
    degree += r.degree;
    bound += r.lower_bound;
  }
  report.metric("degree_over_lb", degree / bound, "ratio", all.size());
}

/// Primes `inputs` through one client; every response is checked, and
/// must be byte-identical to the previous daemon's (`refs` after rep 0).
void prime_set(Daemon& daemon, int rep, const std::vector<PatternInput>& inputs,
               std::vector<svc::CompileResponse>& refs, Report& report) {
  svc::Client::Options options;
  options.port = daemon.port();
  svc::Client client(options);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto response = client.compile(compile_request(inputs[i]));
    if (rep == 0) {
      refs.push_back(std::move(response));
    } else {
      report.check(response.schedule_text == refs[i].schedule_text,
                   "pattern " + std::to_string(i) +
                       " compiled differently after a daemon restart");
    }
  }
}

void check_refs(const std::vector<PatternInput>& inputs,
                const std::vector<svc::CompileResponse>& refs, Report& report,
                ScheduleChecks& checks, std::string& outputs) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto why = checks(inputs[i], refs[i]);
    report.check(why.empty(), "working-set pattern " + std::to_string(i) +
                                  ": " + why);
    outputs += refs[i].schedule_text;
  }
}

struct ClosedLoop {
  std::vector<double> latencies_ms;
  std::int64_t failed = 0;
  double elapsed_s = 0;
};

/// `kConnections` closed-loop client threads, each sending its next
/// request when the previous one returns, until the window closes and
/// `more()` is false.  `issue(connection, client)` sends one request and
/// checks the response.
ClosedLoop closed_loop(
    std::uint16_t port, double seconds, Report& report,
    const std::function<void(int, svc::Client&)>& issue,
    const std::function<bool()>& more) {
  ClosedLoop result;
  std::mutex merge;
  std::vector<std::thread> threads;
  const auto started = Clock::now();
  const auto deadline =
      started + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  for (int c = 0; c < kConnections; ++c)
    threads.emplace_back([&, c] {
      std::vector<double> latencies;
      std::int64_t failed = 0;
      std::string error;
      try {
        svc::Client::Options options;
        options.port = port;
        svc::Client client(options);
        while (Clock::now() < deadline || more()) {
          const auto sent = Clock::now();
          issue(c, client);
          latencies.push_back(ms_between(sent, Clock::now()));
        }
      } catch (const std::exception& e) {
        // A broken connection ends this client; the request is failed.
        ++failed;
        error = e.what();
      }
      std::lock_guard lock(merge);
      result.latencies_ms.insert(result.latencies_ms.end(), latencies.begin(),
                                 latencies.end());
      result.failed += failed;
      report.check(error.empty(), "connection " + std::to_string(c) + ": " + error);
    });
  for (auto& thread : threads) thread.join();
  result.elapsed_s = s_between(started, Clock::now());
  return result;
}

}  // namespace

void run_warm_hits(const RunConfig& config, Report& report) {
  const auto inputs = warm_hits_set(config.seed);
  std::vector<svc::CompileResponse> refs;
  auto daemon = set_up(config, report, config.setup_reps(3), [&](Daemon& d, int rep) {
    prime_set(d, rep, inputs, refs, report);
  });

  std::vector<svc::CompileRequest> requests;
  for (const auto& input : inputs) requests.push_back(compile_request(input));
  std::vector<std::vector<std::size_t>> orders;
  for (int c = 0; c < kConnections; ++c)
    orders.push_back(walk_order(config.seed + static_cast<std::uint64_t>(c),
                                inputs.size()));
  std::vector<std::size_t> sent(kConnections, 0);
  std::atomic<std::int64_t> mismatched{0};

  const auto loop = closed_loop(
      daemon->port(), config.seconds, report,
      [&](int c, svc::Client& client) {
        const auto cu = static_cast<std::size_t>(c);
        const std::size_t i = orders[cu][sent[cu]++ % inputs.size()];
        const auto response = client.compile(requests[i]);
        if (!response.cache_hit || response.disk_hit ||
            response.schedule_text != refs[i].schedule_text)
          ++mismatched;
      },
      [] { return false; });

  // ~50k samples: p99.9 has ~50 beyond it.  p99 falls on the knee between
  // the all-to-all responses' two latency modes and swings by 10-20%
  // from run to run where p98, p99.5 and p99.9 move by 2-5%.
  report_latency(report, loop.latencies_ms.size(), loop.elapsed_s,
                 loop.latencies_ms, 99.9);
  report.check(mismatched == 0, std::to_string(mismatched.load()) +
                                    " warm responses were not byte-identical "
                                    "memory hits");
  std::string outputs;
  ScheduleChecks checks;
  check_refs(inputs, refs, report, checks, outputs);
  checks.report_to(report);
  report_degree(report, refs);
  report.attempted = static_cast<std::int64_t>(loop.latencies_ms.size()) + loop.failed;
  report.failed = loop.failed + mismatched;
  finish(*daemon, report,
         static_cast<std::int64_t>(inputs.size() + loop.latencies_ms.size()));
  report.digest(config, outputs);
}

void run_cold_compile(const RunConfig& config, Report& report) {
  // Resolving the pipeline costs one compile; this pattern is never
  // measured (a one-connection pattern is no Table 1 row).
  const PatternInput probe{"torus:8x8", 64, {{0, 1}}};
  auto daemon = set_up(config, report, config.setup_reps(11), [&](Daemon& d, int) {
    svc::Client::Options options;
    options.port = d.port();
    svc::Client(options).compile(compile_request(probe));
  });

  std::atomic<std::uint64_t> next{0};
  std::mutex merge;
  std::map<std::uint64_t, svc::CompileResponse> responses;
  const auto loop = closed_loop(
      daemon->port(), config.seconds, report,
      [&](int, svc::Client& client) {
        const std::uint64_t index = next++;
        auto response =
            client.compile(compile_request(cold_pattern(config.seed, index)));
        std::lock_guard lock(merge);
        responses.emplace(index, std::move(response));
      },
      [&] { return next.load() < kColdPrefix; });

  report_latency(report, loop.latencies_ms.size(), loop.elapsed_s,
                 loop.latencies_ms, 99);
  // Checks run after the window so they never slow the closed loop.
  std::string outputs;
  ScheduleChecks checks;
  std::vector<svc::CompileResponse> prefix;
  std::int64_t bad = 0;
  for (const auto& [index, response] : responses) {
    auto why = checks(cold_pattern(config.seed, index), response);
    if (response.cache_hit) why += " (cache hit on a distinct pattern)";
    if (!why.empty()) ++bad;
    report.check(why.empty(), "cold pattern " + std::to_string(index) + ": " + why);
    if (index < kColdPrefix) {
      outputs += response.schedule_text;
      prefix.push_back(response);
    }
  }
  report.check(prefix.size() == kColdPrefix, "cold prefix incomplete");
  checks.report_to(report);
  report_degree(report, prefix);
  report.attempted = static_cast<std::int64_t>(loop.latencies_ms.size()) + loop.failed;
  report.failed = loop.failed + bad;
  finish(*daemon, report, 1 + static_cast<std::int64_t>(loop.latencies_ms.size()));
  report.digest(config, outputs);
}

namespace {

int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  // Requests are pipelined: without TCP_NODELAY a small request queued
  // behind an unacknowledged one waits for the delayed ACK.
  const int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to optdm_served failed");
  }
  return fd;
}

/// Closes a socket on scope exit.
struct Socket {
  int fd;
  explicit Socket(std::uint16_t port) : fd(connect_tcp(port)) {}
  ~Socket() { ::close(fd); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
};

}  // namespace

void run_mixed_traffic(const RunConfig& config, Report& report) {
  const auto warm = mixed_warm_set(config.seed);
  std::vector<svc::CompileResponse> refs;
  auto daemon = set_up(config, report, config.setup_reps(3), [&](Daemon& d, int rep) {
    prime_set(d, rep, warm, refs, report);
  });

  const auto arrivals = mixed_arrivals(config.seed, kMixedRatePerS, config.seconds);
  const std::size_t n = arrivals.size();
  // Every request body is encoded before the window opens, so the sender
  // only sleeps and writes.
  std::vector<std::string> warm_payloads;
  std::vector<std::string> sim_payloads;
  std::vector<std::string> cold_payloads;
  for (const auto& input : warm) {
    warm_payloads.push_back(svc::encode(compile_request(input)));
    sim_payloads.push_back(svc::encode(simulate_request(input)));
  }
  for (const auto& a : arrivals)
    if (a.kind == Arrival::Kind::kCold)
      cold_payloads.push_back(svc::encode(
          compile_request(mixed_cold_pattern(config.seed, a.index))));

  // Per-arrival results, each slot written by exactly one receiver.
  std::vector<Clock::time_point> due(n);
  std::vector<double> latency_ms(n, std::nan(""));
  std::vector<std::string> outcome(n);  // "" = ok, else the failure
  std::vector<std::optional<svc::CompileResponse>> cold(n);
  std::vector<std::string> sim_lines(n);
  std::mutex sim_mutex;
  std::map<std::uint64_t, std::string> sim_refs;
  std::atomic<std::int64_t> warm_misses{0};

  Socket sockets[kConnections] = {Socket(daemon->port()), Socket(daemon->port())};
  auto receive = [&](int c) {
    std::size_t expected = 0;
    for (std::size_t i = static_cast<std::size_t>(c); i < n; i += kConnections)
      ++expected;
    try {
      for (std::size_t got = 0; got < expected; ++got) {
        auto frame = svc::read_frame(sockets[c].fd);
        const auto done = Clock::now();
        if (!frame) throw std::runtime_error("daemon closed the connection");
        const std::size_t i = frame->id - 1;
        if (i >= n) throw std::runtime_error("response with unknown id");
        latency_ms[i] = ms_between(due[i], done);
        const Arrival& a = arrivals[i];
        if (frame->type == svc::FrameType::kError) {
          outcome[i] = "error frame: " + svc::decode_error(frame->payload).message;
        } else if (a.kind == Arrival::Kind::kSimulate) {
          bool complete = false;
          sim_lines[i] = simulate_line(
              svc::decode_simulate_response(frame->payload), complete);
          if (!complete) outcome[i] = "simulate incomplete: " + sim_lines[i];
          std::lock_guard lock(sim_mutex);
          const auto [it, fresh] = sim_refs.emplace(a.index, sim_lines[i]);
          if (!fresh && it->second != sim_lines[i])
            outcome[i] = "simulate results differ on a repeated request";
        } else {
          auto r = svc::decode_compile_response(frame->payload);
          if (a.kind == Arrival::Kind::kCold) {
            cold[i] = std::move(r);
          } else {
            // An LRU eviction turns a warm request into a recompile; the
            // bytes must not change either way.
            if (r.schedule_text != refs[a.index].schedule_text)
              outcome[i] = "warm response differs from the primed schedule";
            if (!r.cache_hit) ++warm_misses;
          }
        }
      }
    } catch (const std::exception& e) {
      for (std::size_t i = static_cast<std::size_t>(c); i < n; i += kConnections)
        if (std::isnan(latency_ms[i])) outcome[i] = e.what();
    }
  };

  std::vector<double> late_ms;
  late_ms.reserve(n);
  // Responses may only be matched once their due time is stamped, so the
  // window opens a little after the receivers start.
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i)
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrivals[i].due_s));
  std::vector<std::thread> receivers;
  for (int c = 0; c < kConnections; ++c) receivers.emplace_back(receive, c);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const Arrival& a = arrivals[i];
      std::this_thread::sleep_until(due[i]);
      late_ms.push_back(ms_between(due[i], Clock::now()));
      svc::Frame frame;
      frame.id = static_cast<std::uint32_t>(i + 1);
      frame.type = a.kind == Arrival::Kind::kSimulate
                       ? svc::FrameType::kSimulateRequest
                       : svc::FrameType::kCompileRequest;
      const auto& payloads = a.kind == Arrival::Kind::kWarm   ? warm_payloads
                             : a.kind == Arrival::Kind::kCold ? cold_payloads
                                                              : sim_payloads;
      frame.payload = payloads[a.index];
      svc::write_frame(sockets[i % kConnections].fd, frame);
    }
  } catch (const std::exception& e) {
    // Unblock the receivers; their unanswered arrivals become failures.
    for (auto& s : sockets) ::shutdown(s.fd, SHUT_RDWR);
    report.check(false, std::string("sending: ") + e.what());
  }
  for (auto& r : receivers) r.join();

  std::vector<double> all;
  std::vector<double> warm_lat;
  std::vector<double> sim_lat;
  auto last = start;
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!outcome[i].empty() || std::isnan(latency_ms[i])) {
      ++failed;
      report.check(false, "arrival " + std::to_string(i) + ": " + outcome[i]);
      continue;
    }
    all.push_back(latency_ms[i]);
    if (arrivals[i].kind == Arrival::Kind::kWarm) warm_lat.push_back(latency_ms[i]);
    if (arrivals[i].kind == Arrival::Kind::kSimulate) sim_lat.push_back(latency_ms[i]);
    last = std::max(last, due[i] + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double, std::milli>(
                                           latency_ms[i])));
  }
  report_latency(report, all.size(), s_between(start, last), all, 99);
  report.extra("warm_evicted", static_cast<double>(warm_misses.load()), "count",
               warm_lat.size());
  report.percentile("warm_p99_ms", warm_lat, 99, "ms", true);
  report.percentile("sim_p50_ms", sim_lat, 50, "ms", true);
  report.percentile("sim_p99_ms", sim_lat, 99, "ms", true);
  report.percentile("generator_late_p99_ms", late_ms, 99, "ms", true);

  std::string outputs;
  ScheduleChecks checks;
  check_refs(warm, refs, report, checks, outputs);
  std::vector<svc::CompileResponse> quality = refs;
  std::vector<std::string> cold_prefix(kMixedPrefix);
  std::vector<std::string> sim_prefix;
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = arrivals[i];
    if (a.kind == Arrival::Kind::kCold && cold[i]) {
      const auto why = checks(mixed_cold_pattern(config.seed, a.index), *cold[i]);
      report.check(why.empty() && !cold[i]->cache_hit,
                   "cold pattern " + std::to_string(a.index) + ": " + why);
      // The arrival list is fixed by seed and window, so every cold
      // compile counts towards the output quality.
      quality.push_back(*cold[i]);
      if (a.index < kMixedPrefix) cold_prefix[a.index] = cold[i]->schedule_text;
    } else if (a.kind == Arrival::Kind::kSimulate && sim_prefix.size() < kMixedPrefix) {
      sim_prefix.push_back(sim_lines[i]);
    }
  }
  report.check(std::none_of(cold_prefix.begin(), cold_prefix.end(),
                            [](const std::string& text) { return text.empty(); }) &&
                   sim_prefix.size() == kMixedPrefix,
               "mixed_traffic digest prefix incomplete");
  for (const auto& text : cold_prefix) outputs += text;
  for (const auto& line : sim_prefix) outputs += line;
  checks.report_to(report);
  report_degree(report, quality);
  report.attempted = static_cast<std::int64_t>(n);
  report.failed = failed;
  finish(*daemon, report,
         static_cast<std::int64_t>(warm.size() + n) - failed);
  report.digest(config, outputs);
}

}  // namespace optdm::bench
