#include "apps/sweep.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "util/failure.hpp"
#include "util/parallel.hpp"

namespace optdm::apps {

namespace {

using util::Failure;
using util::FailureCode;

const sim::FaultTimeline kHealthy;

// --- Shard wire format ---------------------------------------------------
//
// One worker process streams frames back to the parent:
//
//   frame := {u32 kind, u32 pad, u64 payload_size, payload}
//     kind 1 (progress): payload = u64 cells completed so far — the
//       heartbeat the supervisor's hang detector watches;
//     kind 2 (result):   payload = {magic, version, begin, end}, the
//       cells in index order, then a trailer magic.  Exactly one, last.
//
// Everything is fixed-width host-endian — the stream never leaves the
// machine (it exists for the lifetime of one pipe) — and all repeated
// payloads are trivially copyable stats records, so cells serialize as
// length-prefixed memcpys.  The parent merges a shard only from a
// complete stream that parses exactly (header, every cell, trailer, no
// residue) from a worker that exited cleanly; anything else is a failed
// attempt the supervisor retries.

constexpr std::uint64_t kShardMagic = 0x4f5054444d535750ULL;    // "OPTDMSWP"
constexpr std::uint64_t kShardTrailer = 0x53574545502d4f4bULL;  // "SWEEP-OK"
// v3: CompiledCell carries the reconfig-axis coordinate.
constexpr std::uint32_t kShardVersion = 3;

constexpr std::uint32_t kFrameProgress = 1;
constexpr std::uint32_t kFrameResult = 2;

void put_bytes(std::vector<char>& out, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  out.insert(out.end(), p, p + size);
}

template <typename T>
void put_pod(std::vector<char>& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(out, &value, sizeof value);
}

template <typename T>
void put_vec(std::vector<char>& out, const std::vector<T>& values) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_pod(out, static_cast<std::uint64_t>(values.size()));
  put_bytes(out, values.data(), values.size() * sizeof(T));
}

void put_frame_header(std::vector<char>& out, std::uint32_t kind,
                      std::uint64_t payload_size) {
  put_pod(out, kind);
  put_pod(out, std::uint32_t{0});
  put_pod(out, payload_size);
}

class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size)
      : at_(data), end_(data + size) {}

  void get_bytes(void* dst, std::size_t size) {
    if (static_cast<std::size_t>(end_ - at_) < size)
      throw Failure(FailureCode::kShardStreamCorrupt,
                    "sweep shard stream truncated");
    std::memcpy(dst, at_, size);
    at_ += size;
  }

  template <typename T>
  T get_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    get_bytes(&value, sizeof value);
    return value;
  }

  template <typename T>
  void get_vec(std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = get_pod<std::uint64_t>();
    if (count * sizeof(T) > static_cast<std::size_t>(end_ - at_))
      throw Failure(FailureCode::kShardStreamCorrupt,
                    "sweep shard stream truncated");
    values.resize(static_cast<std::size_t>(count));
    get_bytes(values.data(), values.size() * sizeof(T));
  }

  void skip(std::size_t size) {
    if (static_cast<std::size_t>(end_ - at_) < size)
      throw Failure(FailureCode::kShardStreamCorrupt,
                    "sweep shard stream truncated");
    at_ += size;
  }

  std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - at_);
  }
  bool exhausted() const noexcept { return at_ == end_; }

 private:
  const char* at_;
  const char* end_;
};

void put_compiled(std::vector<char>& out, const CompiledCell& cell) {
  // run_sharded forbids the recovery loop, so `recovery` is never set.
  put_pod(out, static_cast<std::uint64_t>(cell.phase));
  put_pod(out, static_cast<std::uint64_t>(cell.fault));
  put_pod(out, static_cast<std::uint64_t>(cell.reconfig));
  put_pod(out, static_cast<std::int32_t>(cell.degree));
  put_pod(out, static_cast<std::uint8_t>(cell.cache_hit));
  put_pod(out, cell.result.total_slots);
  put_pod(out, static_cast<std::int32_t>(cell.result.degree));
  put_pod(out, cell.result.faults);
  put_vec(out, cell.result.messages);
}

void get_compiled(ByteReader& in, CompiledCell& cell) {
  cell.phase = static_cast<std::size_t>(in.get_pod<std::uint64_t>());
  cell.fault = static_cast<std::size_t>(in.get_pod<std::uint64_t>());
  cell.reconfig = static_cast<std::size_t>(in.get_pod<std::uint64_t>());
  cell.degree = in.get_pod<std::int32_t>();
  cell.cache_hit = in.get_pod<std::uint8_t>() != 0;
  cell.result.total_slots = in.get_pod<std::int64_t>();
  cell.result.degree = in.get_pod<std::int32_t>();
  cell.result.faults = in.get_pod<sim::FaultStats>();
  in.get_vec(cell.result.messages);
}

void put_dynamic(std::vector<char>& out, const DynamicCell& cell) {
  put_pod(out, static_cast<std::uint64_t>(cell.phase));
  put_pod(out, static_cast<std::uint64_t>(cell.fault));
  put_pod(out, static_cast<std::uint64_t>(cell.variant));
  put_pod(out, static_cast<std::uint64_t>(cell.seed));
  put_pod(out, cell.result.total_slots);
  put_pod(out, cell.result.total_retries);
  put_pod(out, static_cast<std::uint8_t>(cell.result.completed));
  put_pod(out, static_cast<std::uint8_t>(cell.result.clean_shutdown));
  put_pod(out, static_cast<std::uint8_t>(cell.result.livelock));
  put_pod(out, cell.result.faults);
  put_vec(out, cell.result.messages);
}

void get_dynamic(ByteReader& in, DynamicCell& cell) {
  cell.phase = static_cast<std::size_t>(in.get_pod<std::uint64_t>());
  cell.fault = static_cast<std::size_t>(in.get_pod<std::uint64_t>());
  cell.variant = static_cast<std::size_t>(in.get_pod<std::uint64_t>());
  cell.seed = static_cast<std::size_t>(in.get_pod<std::uint64_t>());
  cell.result.total_slots = in.get_pod<std::int64_t>();
  cell.result.total_retries = in.get_pod<std::int64_t>();
  cell.result.completed = in.get_pod<std::uint8_t>() != 0;
  cell.result.clean_shutdown = in.get_pod<std::uint8_t>() != 0;
  cell.result.livelock = in.get_pod<std::uint8_t>() != 0;
  cell.result.faults = in.get_pod<sim::FaultStats>();
  in.get_vec(cell.result.messages);
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const auto written = ::write(fd, data, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

// --- Chaos hook ----------------------------------------------------------
//
// `OPTDM_CHAOS=<mode>:shard=<s>[:cell=<c>][:attempt=<a>|all][:seed=<n>]`
// injects one seeded fault into a `run_sharded` worker — the official
// promotion of the old `fail_shard` test hook, usable by tests and the CI
// chaos step:
//
//   kill    the worker raises SIGKILL when it reaches the trigger cell;
//   hang    the worker stops making progress (loops in pause()) — only a
//           `ShardPolicy::deadline_ms` can reclaim it;
//   garble  the worker abandons computation at the trigger cell and
//           reports a seeded-garbage result frame with a clean exit —
//           stream validation must catch it.
//
// `cell` is a *global* cell index the shard owns (default: the first cell
// of its range); `attempt` selects which attempt misbehaves (default 0 —
// the first — so default-policy retries recover and the merged digest
// stays byte-identical to the fault-free run; `all` makes every attempt
// misbehave, exercising the exhaustion policies).  A malformed spec
// throws `util::Failure{kInvalidConfig}` in the parent, before any fork.

struct ChaosSpec {
  enum class Mode { kNone, kKill, kHang, kGarble };
  Mode mode = Mode::kNone;
  int shard = -1;
  std::int64_t cell = -1;  // -1 = first cell of the target shard's range
  int attempt = 0;         // -1 = every attempt
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  bool armed_for(std::size_t shard_index, int attempt_index) const noexcept {
    return mode != Mode::kNone &&
           shard == static_cast<int>(shard_index) &&
           (attempt < 0 || attempt == attempt_index);
  }
};

std::int64_t parse_int_or_throw(const std::string& text,
                                const std::string& spec) {
  std::size_t used = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty())
    throw Failure(FailureCode::kInvalidConfig,
                  "OPTDM_CHAOS: bad integer '" + text + "' in '" + spec + "'");
  return value;
}

ChaosSpec parse_chaos_env() {
  ChaosSpec spec;
  const char* raw = std::getenv("OPTDM_CHAOS");
  if (raw == nullptr || *raw == '\0') return spec;
  const std::string text(raw);

  std::size_t pos = text.find(':');
  const std::string mode = text.substr(0, pos);
  if (mode == "kill") spec.mode = ChaosSpec::Mode::kKill;
  else if (mode == "hang") spec.mode = ChaosSpec::Mode::kHang;
  else if (mode == "garble") spec.mode = ChaosSpec::Mode::kGarble;
  else
    throw Failure(FailureCode::kInvalidConfig,
                  "OPTDM_CHAOS: unknown mode '" + mode + "' (kill|hang|garble)");

  bool have_shard = false;
  while (pos != std::string::npos) {
    const std::size_t next = text.find(':', pos + 1);
    const std::string field =
        text.substr(pos + 1, next == std::string::npos ? std::string::npos
                                                       : next - pos - 1);
    pos = next;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      throw Failure(FailureCode::kInvalidConfig,
                    "OPTDM_CHAOS: expected key=value, got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "shard") {
      spec.shard = static_cast<int>(parse_int_or_throw(value, text));
      have_shard = true;
    } else if (key == "cell") {
      spec.cell = parse_int_or_throw(value, text);
    } else if (key == "attempt") {
      spec.attempt = value == "all"
                         ? -1
                         : static_cast<int>(parse_int_or_throw(value, text));
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_int_or_throw(value, text));
    } else {
      throw Failure(FailureCode::kInvalidConfig,
                    "OPTDM_CHAOS: unknown key '" + key + "'");
    }
  }
  if (!have_shard || spec.shard < 0)
    throw Failure(FailureCode::kInvalidConfig,
                  "OPTDM_CHAOS: a non-negative shard=N is required");
  return spec;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// In-worker chaos injection at the trigger cell.  `kKill` and `kHang`
/// never return; `kGarble` writes a seeded-garbage result frame and exits
/// cleanly so only stream validation can flag the attempt.
[[noreturn]] void inject_chaos(const ChaosSpec& chaos, int fd) {
  switch (chaos.mode) {
    case ChaosSpec::Mode::kKill:
      ::raise(SIGKILL);
      break;
    case ChaosSpec::Mode::kHang:
      for (;;) ::pause();
      break;
    case ChaosSpec::Mode::kGarble: {
      std::vector<char> frame;
      std::uint64_t state = chaos.seed;
      constexpr std::size_t kGarbageBytes = 96;
      put_frame_header(frame, kFrameResult, kGarbageBytes);
      for (std::size_t i = 0; i < kGarbageBytes; i += 8)
        put_pod(frame, splitmix64(state));
      (void)write_all(fd, frame.data(), frame.size());
      ::close(fd);
      _exit(0);
    }
    case ChaosSpec::Mode::kNone:
      break;
  }
  _exit(13);  // unreachable for armed modes; defensive for kNone
}

}  // namespace

SweepRunner::SweepRunner(const topo::TorusNetwork& net, SweepOptions options)
    : net_(&net), options_(std::move(options)),
      pipeline_(net, options_.pipeline) {}

SweepResult SweepRunner::prepare(const SweepGrid& grid) {
  SweepResult out;

  // Stage 1 (serial): draw fault timelines in level order.  All RNG in
  // the sweep happens here, before any parallelism.
  static const FaultLevel kHealthyLevel{};
  const std::span<const FaultLevel> levels =
      grid.faults.empty() ? std::span<const FaultLevel>(&kHealthyLevel, 1)
                          : std::span<const FaultLevel>(grid.faults);
  out.fault_count = levels.size();
  out.timelines.reserve(levels.size());
  for (const auto& level : levels)
    out.timelines.push_back(sim::random_fault_timeline(*net_, level.spec));

  // Stage 2 (serial): compile the compiled side in phase order through
  // the schedule cache, so hit/miss provenance is deterministic.  The
  // recovery loop compiles internally (round 1 through the same pipeline,
  // later rounds against the live fault set), so a recovery sweep skips
  // this stage.
  const bool one_shot_compiled = options_.run_compiled && !options_.recovery;
  if (one_shot_compiled) {
    out.compilations.reserve(grid.phases.size());
    for (const auto& phase : grid.phases)
      out.compilations.push_back(pipeline_.compile_phase(phase.pattern()));
  }

  out.variant_count = grid.dynamic.size();
  out.seed_count = grid.seeds.empty() ? 1 : grid.seeds.size();
  out.reconfig_count = grid.reconfig.empty() ? 1 : grid.reconfig.size();
  const std::size_t compiled_cells =
      options_.run_compiled
          ? grid.phases.size() * out.fault_count * out.reconfig_count
          : 0;
  const std::size_t dynamic_cells = grid.phases.size() * out.fault_count *
                                    out.variant_count * out.seed_count;
  out.compiled.resize(compiled_cells);
  out.dynamic.resize(dynamic_cells);
  return out;
}

void SweepRunner::run_cells(const SweepGrid& grid, SweepResult& out,
                            std::size_t begin, std::size_t end) {
  // Stage 3 (parallel): every cell is a pure function of the inputs
  // `prepare` staged.  Each index writes only its own slot; the results
  // land in grid order by construction.
  const std::size_t compiled_cells = out.compiled.size();
  util::parallel_for(end - begin, [&](std::size_t offset) {
    const std::size_t i = begin + offset;
    if (i < compiled_cells) {
      auto& cell = out.compiled[i];
      cell.reconfig = i % out.reconfig_count;
      const std::size_t pf = i / out.reconfig_count;
      cell.phase = pf / out.fault_count;
      cell.fault = pf % out.fault_count;
      const auto& phase = grid.phases[cell.phase];
      const auto& timeline = out.timelines[cell.fault];
      // Reconfig level of this cell; the empty axis is one R=0 level,
      // keeping every parameter byte-identical to the pre-axis engine.
      static const sched::ReconfigOptions kFreeReconfig{};
      const sched::ReconfigOptions& reconfig =
          grid.reconfig.empty() ? kFreeReconfig
                                : grid.reconfig[cell.reconfig].options;
      if (options_.recovery) {
        RecoveryParams recovery_params = options_.recovery_params;
        recovery_params.reconfig = reconfig;
        cell.recovery = run_with_recovery(pipeline_, phase.messages, timeline,
                                          recovery_params);
        if (!cell.recovery->rounds.empty())
          cell.degree = cell.recovery->rounds.front().degree;
      } else {
        const auto& compilation = out.compilations[cell.phase];
        cell.cache_hit = compilation.cache_hit;
        cell.degree = compilation.phase.schedule.degree();
        sim::CompiledParams params = options_.compiled;
        if (reconfig.latency > 0) {
          // Pure function of the (already fixed) schedule, so computing
          // it per cell preserves the determinism contract.
          const auto plan = sched::plan_reconfiguration(
              *net_, compilation.phase.schedule, reconfig);
          params.stall_slots = plan.stall_before;
        }
        sim::SimOptions sim;
        if (timeline.has_link_faults()) sim.faults = &timeline;
        cell.result = sim::simulate_compiled(compilation.phase.schedule,
                                             phase.messages, params, sim);
      }
      return;
    }
    const std::size_t d = i - compiled_cells;
    auto& cell = out.dynamic[d];
    cell.seed = d % out.seed_count;
    const std::size_t rest = d / out.seed_count;
    cell.variant = rest % out.variant_count;
    cell.fault = rest / out.variant_count % out.fault_count;
    cell.phase = rest / out.variant_count / out.fault_count;
    auto params = grid.dynamic[cell.variant].params;
    if (!grid.seeds.empty()) params.seed = grid.seeds[cell.seed];
    sim::SimOptions cell_options;
    cell_options.faults = &out.timelines[cell.fault];
    cell.result = sim::simulate_dynamic(*net_, grid.phases[cell.phase].messages,
                                        params, cell_options);
  });
}

SweepResult SweepRunner::run(const SweepGrid& grid) {
  auto out = prepare(grid);
  run_cells(grid, out, 0, out.compiled.size() + out.dynamic.size());
  return out;
}

// --- The shard supervisor ------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

struct Worker {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  pid_t pid = -1;
  int fd = -1;  ///< parent-side read end; -1 when not running
  /// Spawns so far; the running attempt's 0-based index is `attempts - 1`.
  int attempts = 0;
  /// Bytes received from the current attempt (frames, possibly partial).
  std::vector<char> stream;
  Clock::time_point last_progress{};
  Clock::time_point respawn_at{};
  bool respawn_pending = false;
  bool settled = false;  ///< merged, or abandoned under Salvage
  bool missing = false;  ///< abandoned under Salvage
  FailureCode last_failure = FailureCode::kShardCrashed;

  bool running() const noexcept { return fd >= 0; }
};

/// SIGKILLs and reaps every live worker and closes its pipe — the
/// all-paths cleanup for throws and for partial-spawn failures, so no fd
/// or zombie outlives `run_sharded`.
void kill_all(std::vector<Worker>& workers) {
  for (auto& w : workers) {
    if (!w.running()) continue;
    ::kill(w.pid, SIGKILL);
    ::close(w.fd);
    w.fd = -1;
  }
  for (auto& w : workers) {
    if (w.pid < 0) continue;
    ::waitpid(w.pid, nullptr, 0);
    w.pid = -1;
  }
}

}  // namespace

SweepResult SweepRunner::run_sharded(const SweepGrid& grid,
                                     const ShardOptions& shard) {
  if (shard.shards < 1)
    throw Failure(FailureCode::kInvalidConfig,
                  "run_sharded: shard count must be positive");
  if (options_.recovery)
    throw Failure(
        FailureCode::kInvalidConfig,
        "run_sharded: the recovery loop is not shardable (recovery results "
        "carry live compiler state); use run()");
  const ShardPolicy& policy = shard.policy;
  if (policy.max_retries < 0 || policy.deadline_ms < 0 ||
      policy.backoff_ms < 0 || policy.max_backoff_ms < 0)
    throw Failure(FailureCode::kInvalidConfig,
                  "run_sharded: ShardPolicy fields must be non-negative");
  // Parsed (and validated) in the parent, once, before any fork.
  const ChaosSpec chaos = parse_chaos_env();

  // Stages 1–2 in the parent, before any fork: timelines, compilations,
  // and cache hit/miss provenance are fixed here, so they cannot depend
  // on the shard count or on any supervision incident.  Workers inherit
  // the compilations through fork's copy-on-write image.
  auto out = prepare(grid);
  const std::size_t compiled_cells = out.compiled.size();
  const std::size_t total = compiled_cells + out.dynamic.size();
  const auto shards = static_cast<std::size_t>(shard.shards);

  // Contiguous equal partition of [0, total); trailing shards may be
  // empty when there are more shards than cells.
  const std::size_t base = total / shards;
  const std::size_t extra = total % shards;

  std::vector<Worker> workers(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    workers[s].index = s;
    workers[s].begin = s * base + (s < extra ? s : extra);
    workers[s].end = workers[s].begin + base + (s < extra ? 1 : 0);
  }

  // Spawns (or respawns) one worker.  The child computes its cells one at
  // a time, heartbeating a progress frame after each, then reports one
  // result frame and exits; it exits only via _exit so no inherited
  // static destructors run.  Returns false when pipe()/fork() fails —
  // the caller owns cleanup.
  const auto spawn = [&](Worker& w) -> bool {
    int fds[2];
    if (::pipe(fds) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      // Worker process.  Single-threaded (the pool does not survive the
      // fork; util::parallel runs inline here).
      ::close(fds[0]);
      for (const auto& other : workers)
        if (other.running()) ::close(other.fd);
      ::signal(SIGPIPE, SIG_IGN);  // write failures report as status 1
      const int attempt_index = w.attempts;  // incremented by the parent
      const bool chaos_armed = chaos.armed_for(w.index, attempt_index);
      const std::size_t trigger =
          chaos.cell < 0 ? w.begin : static_cast<std::size_t>(chaos.cell);
      int status = 0;
      try {
        std::vector<char> frame;
        std::uint64_t done = 0;
        for (std::size_t i = w.begin; i < w.end; ++i) {
          if (chaos_armed && i == trigger) inject_chaos(chaos, fds[1]);
          run_cells(grid, out, i, i + 1);
          ++done;
          frame.clear();
          put_frame_header(frame, kFrameProgress, sizeof done);
          put_pod(frame, done);
          if (!write_all(fds[1], frame.data(), frame.size())) {
            status = 1;
            break;
          }
        }
        if (status == 0) {
          std::vector<char> payload;
          put_pod(payload, kShardMagic);
          put_pod(payload, kShardVersion);
          put_pod(payload, static_cast<std::uint64_t>(w.begin));
          put_pod(payload, static_cast<std::uint64_t>(w.end));
          for (std::size_t i = w.begin; i < w.end; ++i) {
            if (i < compiled_cells)
              put_compiled(payload, out.compiled[i]);
            else
              put_dynamic(payload, out.dynamic[i - compiled_cells]);
          }
          put_pod(payload, kShardTrailer);
          frame.clear();
          put_frame_header(frame, kFrameResult, payload.size());
          if (!write_all(fds[1], frame.data(), frame.size()) ||
              !write_all(fds[1], payload.data(), payload.size()))
            status = 1;
        }
      } catch (...) {
        status = 2;
      }
      ::close(fds[1]);
      _exit(status);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    w.pid = pid;
    w.fd = fds[0];
    ++w.attempts;
    w.stream.clear();
    w.respawn_pending = false;
    w.last_progress = Clock::now();
    return true;
  };

  // Validates one finished attempt's stream and, on success, merges its
  // cells.  Cells are parsed into scratch vectors first and committed
  // only after the trailer checks out, so a stream that goes bad halfway
  // cannot leave partial cells behind.
  const auto validate_and_merge = [&](Worker& w) {
    ByteReader in(w.stream.data(), w.stream.size());
    bool saw_result = false;
    std::vector<CompiledCell> compiled_scratch;
    std::vector<DynamicCell> dynamic_scratch;
    while (!in.exhausted()) {
      if (saw_result)
        throw Failure(FailureCode::kShardStreamCorrupt,
                      "bytes after the result frame");
      const auto kind = in.get_pod<std::uint32_t>();
      in.skip(sizeof(std::uint32_t));  // pad
      const auto size = in.get_pod<std::uint64_t>();
      if (kind == kFrameProgress) {
        in.skip(static_cast<std::size_t>(size));
        continue;
      }
      if (kind != kFrameResult)
        throw Failure(FailureCode::kShardStreamCorrupt,
                      "unknown frame kind " + std::to_string(kind));
      if (size != in.remaining())
        throw Failure(FailureCode::kShardStreamCorrupt,
                      "result frame size does not match the stream");
      if (in.get_pod<std::uint64_t>() != kShardMagic ||
          in.get_pod<std::uint32_t>() != kShardVersion)
        throw Failure(FailureCode::kShardStreamCorrupt,
                      "result stream has a bad header");
      if (in.get_pod<std::uint64_t>() != w.begin ||
          in.get_pod<std::uint64_t>() != w.end)
        throw Failure(FailureCode::kShardStreamCorrupt,
                      "worker reported the wrong cell range");
      for (std::size_t i = w.begin; i < w.end; ++i) {
        if (i < compiled_cells) {
          get_compiled(in, compiled_scratch.emplace_back());
        } else {
          get_dynamic(in, dynamic_scratch.emplace_back());
        }
      }
      if (in.get_pod<std::uint64_t>() != kShardTrailer)
        throw Failure(FailureCode::kShardStreamCorrupt,
                      "result stream has a bad trailer");
      saw_result = true;
    }
    if (!saw_result)
      throw Failure(FailureCode::kShardStreamCorrupt,
                    "stream ended without a result frame");
    std::size_t c = 0, d = 0;
    for (std::size_t i = w.begin; i < w.end; ++i) {
      if (i < compiled_cells)
        out.compiled[i] = std::move(compiled_scratch[c++]);
      else
        out.dynamic[i - compiled_cells] = std::move(dynamic_scratch[d++]);
    }
  };

  std::size_t settled = 0;

  // One attempt is over (EOF + reaped, or killed): validate / retry /
  // exhaust.  `wait_status` is the waitpid status of the dead worker.
  const auto finish_attempt = [&](Worker& w, int wait_status,
                                  std::optional<FailureCode> forced_failure) {
    std::optional<FailureCode> failure = forced_failure;
    if (!failure &&
        (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0))
      failure = FailureCode::kShardCrashed;
    if (!failure) {
      try {
        validate_and_merge(w);
      } catch (const Failure&) {
        failure = FailureCode::kShardStreamCorrupt;
      }
    }
    if (!failure) {
      w.settled = true;
      ++settled;
      return;
    }

    w.last_failure = *failure;
    if (w.attempts <= policy.max_retries) {
      // Schedule the re-fork after a capped exponential backoff.  Retries
      // are safe: the cells are pure, so the retry recomputes the exact
      // bytes the lost attempt would have reported.
      ++out.supervision.retries;
      switch (*failure) {
        case FailureCode::kShardHung:
          ++out.supervision.restarts_hung;
          break;
        case FailureCode::kShardStreamCorrupt:
          ++out.supervision.restarts_corrupt;
          break;
        default:
          ++out.supervision.restarts_crashed;
          break;
      }
      const int prior = w.attempts;  // 1-based count of finished attempts
      std::int64_t delay = policy.backoff_ms;
      for (int a = 1; a < prior && delay < policy.max_backoff_ms; ++a)
        delay = std::min(delay * 2, policy.max_backoff_ms);
      delay = std::min(delay, policy.max_backoff_ms);
      w.respawn_pending = true;
      w.respawn_at = Clock::now() + std::chrono::milliseconds(delay);
      return;
    }

    // Budget spent.
    if (policy.on_exhaustion == ShardExhaustion::kFail) {
      kill_all(workers);
      throw Failure(
          FailureCode::kShardExhausted,
          "run_sharded: shard " + std::to_string(w.index) + " of " +
              std::to_string(shards) + " failed " +
              std::to_string(w.attempts) + " attempt(s) (last: " +
              std::string(util::to_string(w.last_failure)) +
              "); retry budget exhausted, results discarded");
    }
    // Salvage: the merged sweep comes back with this shard's cells
    // explicitly marked missing (coordinates filled, data defaulted).
    w.settled = true;
    w.missing = true;
    ++settled;
    out.supervision.salvaged_cells +=
        static_cast<std::int64_t>(w.end - w.begin);
    for (std::size_t i = w.begin; i < w.end; ++i) {
      if (i < compiled_cells) {
        auto& cell = out.compiled[i];
        cell.reconfig = i % out.reconfig_count;
        const std::size_t pf = i / out.reconfig_count;
        cell.phase = pf / out.fault_count;
        cell.fault = pf % out.fault_count;
        cell.missing = true;
      } else {
        const std::size_t d = i - compiled_cells;
        auto& cell = out.dynamic[d];
        cell.seed = d % out.seed_count;
        const std::size_t rest = d / out.seed_count;
        cell.variant = rest % out.variant_count;
        cell.fault = rest / out.variant_count % out.fault_count;
        cell.phase = rest / out.variant_count / out.fault_count;
        cell.missing = true;
      }
    }
  };

  // Reads everything currently available from a running worker; on EOF
  // reaps it and closes the attempt out.
  const auto drain = [&](Worker& w) {
    for (;;) {
      char chunk[1 << 16];
      const auto got = ::read(w.fd, chunk, sizeof chunk);
      if (got > 0) {
        w.stream.insert(w.stream.end(), chunk, chunk + got);
        w.last_progress = Clock::now();
        continue;
      }
      if (got == 0) {  // EOF: the attempt is over
        ::close(w.fd);
        w.fd = -1;
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        w.pid = -1;
        finish_attempt(w, status, std::nullopt);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // The pipe itself failed — kill the attempt and let the supervisor
      // retry it as a resource failure.
      ::kill(w.pid, SIGKILL);
      ::close(w.fd);
      w.fd = -1;
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
      finish_attempt(w, 0, FailureCode::kShardPipeIo);
      return;
    }
  };

  // Initial spawn.  A pipe()/fork() failure here is a Resource failure of
  // the whole call: kill and reap everything already forked, close every
  // parent-side fd, and propagate — a partial spawn must not leak.
  for (auto& w : workers) {
    if (!spawn(w)) {
      const int err = errno;
      kill_all(workers);
      throw Failure(FailureCode::kShardSpawnFailed,
                    "run_sharded: pipe()/fork() failed spawning shard " +
                        std::to_string(w.index) + ": " +
                        std::string(std::strerror(err)));
    }
  }

  // Supervisor loop: poll every running pipe, feed the hang detector,
  // fire due respawns, until every shard settles.  All throws funnel
  // through kill_all so no worker or fd outlives this frame.
  try {
    while (settled < shards) {
      std::vector<pollfd> fds;
      fds.reserve(shards);
      std::vector<std::size_t> fd_owner;
      int timeout = -1;
      const auto consider = [&](Clock::time_point when) {
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            when - Clock::now())
                            .count();
        const int clamped = static_cast<int>(std::max<std::int64_t>(ms, 0));
        timeout = timeout < 0 ? clamped : std::min(timeout, clamped);
      };
      for (auto& w : workers) {
        if (w.running()) {
          fds.push_back(pollfd{w.fd, POLLIN, 0});
          fd_owner.push_back(w.index);
          if (policy.deadline_ms > 0)
            consider(w.last_progress +
                     std::chrono::milliseconds(policy.deadline_ms));
        } else if (w.respawn_pending) {
          consider(w.respawn_at);
        }
      }
      if (const int rc = ::poll(fds.data(),
                                static_cast<nfds_t>(fds.size()), timeout);
          rc < 0 && errno != EINTR) {
        throw Failure(FailureCode::kShardPipeIo,
                      "run_sharded: poll() failed: " +
                          std::string(std::strerror(errno)));
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        auto& w = workers[fd_owner[i]];
        if (w.running() && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
          drain(w);
      }
      // Hang detection: no frame within the deadline means the worker is
      // stuck inside one cell (heartbeats come after every cell).  SIGKILL
      // and close the attempt; the retry path re-forks it.
      if (policy.deadline_ms > 0) {
        const auto now = Clock::now();
        for (auto& w : workers) {
          if (!w.running()) continue;
          if (now - w.last_progress <
              std::chrono::milliseconds(policy.deadline_ms))
            continue;
          ::kill(w.pid, SIGKILL);
          ::close(w.fd);
          w.fd = -1;
          ::waitpid(w.pid, nullptr, 0);
          w.pid = -1;
          finish_attempt(w, 0, FailureCode::kShardHung);
        }
      }
      // Fire due respawns.
      const auto now = Clock::now();
      for (auto& w : workers) {
        if (!w.respawn_pending || now < w.respawn_at) continue;
        if (!spawn(w)) {
          const int err = errno;
          throw Failure(FailureCode::kShardSpawnFailed,
                        "run_sharded: pipe()/fork() failed respawning shard " +
                            std::to_string(w.index) + ": " +
                            std::string(std::strerror(err)));
        }
      }
    }
  } catch (...) {
    kill_all(workers);
    throw;
  }
  return out;
}

std::vector<sim::DynamicResult> run_dynamic_batch(
    const topo::Network& net, std::span<const DynamicRun> runs) {
  std::vector<sim::DynamicResult> results(runs.size());
  util::parallel_for(runs.size(), [&](std::size_t i) {
    const auto& run = runs[i];
    sim::SimOptions run_options;
    run_options.faults = run.faults != nullptr ? run.faults : &kHealthy;
    results[i] =
        sim::simulate_dynamic(net, run.messages, run.params, run_options);
  });
  return results;
}

}  // namespace optdm::apps
