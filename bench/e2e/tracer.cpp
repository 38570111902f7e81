#include "tracer.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "obs/json.hpp"
#include "util/stats.hpp"

namespace optdm::bench {

namespace {

/// Raw spans kept per thread for the Chrome trace (aggregates are exact
/// regardless); enough to open the first few thousand requests.
constexpr std::size_t kRawSpansPerThread = 20000;

struct OpenSpan {
  const char* name;
  std::int64_t start;
  std::int64_t covered;
  std::int64_t id;
};

struct RawSpan {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::int64_t id;
  std::int64_t parent;
  std::uint64_t request;
  /// Lane within the thread: 0, or 1 for a concurrent branch.
  int lane;
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::int64_t next_id = 0;
  std::uint64_t request = 0;
  std::vector<OpenSpan> stack;
  std::vector<RawSpan> raw;
  std::unordered_map<std::string_view, LayerStats> layers;

  std::int64_t new_id() { return (static_cast<std::int64_t>(tid) << 40) | ++next_id; }
  std::int64_t parent_id() const { return stack.empty() ? 0 : stack.back().id; }

  void record(const char* name, std::int64_t start, std::int64_t end,
              std::int64_t self, std::int64_t id, int lane) {
    auto& stats = layers[name];
    ++stats.count;
    const auto duration = static_cast<double>(end - start);
    stats.total_ns += duration;
    stats.self_ns += static_cast<double>(self);
    stats.durations_ns.push_back(duration);
    if (raw.size() < kRawSpansPerThread)
      raw.push_back({name, start, end, id, parent_id(), request, lane});
  }
};

struct Registry {
  std::atomic<bool> enabled{false};
  const Clock::time_point epoch = Clock::now();
  /// Buffers outlive their threads: thread_local pointers stay valid, and
  /// aggregation after the threads joined still sees their spans.
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (!buffer) {
    auto& r = registry();
    std::lock_guard lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = r.buffers.back().get();
    buffer->tid = static_cast<std::uint32_t>(r.buffers.size());
  }
  return *buffer;
}

}  // namespace

void Tracer::set_enabled(bool on) {
  registry().enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() {
  return registry().enabled.load(std::memory_order_relaxed);
}

void Tracer::set_request(std::uint64_t request) {
  if (enabled()) local().request = request;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - registry().epoch)
      .count();
}

Tracer::Span::Span(const char* name) {
  if (!enabled()) return;
  active_ = true;
  auto& buffer = local();
  start_ = now_ns();
  buffer.stack.push_back({name, start_, 0, buffer.new_id()});
}

Tracer::Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  auto& buffer = local();
  const OpenSpan open = buffer.stack.back();
  buffer.stack.pop_back();
  const std::int64_t duration = end - open.start;
  buffer.record(open.name, open.start, end, duration - open.covered, open.id, 0);
  if (!buffer.stack.empty()) buffer.stack.back().covered += duration;
}

void Tracer::child(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, bool covers) {
  if (!enabled()) return;
  auto& buffer = local();
  buffer.record(name, start_ns, end_ns, end_ns - start_ns, buffer.new_id(),
                covers ? 0 : 1);
  if (covers && !buffer.stack.empty())
    buffer.stack.back().covered += end_ns - start_ns;
}

void Tracer::cover(std::int64_t ns) {
  if (!enabled() || ns <= 0) return;
  auto& buffer = local();
  if (!buffer.stack.empty()) buffer.stack.back().covered += ns;
}

void Tracer::value(const char* name, double sample) {
  if (enabled()) local().layers[name].values.push_back(sample);
}

std::map<std::string, LayerStats> Tracer::layers() {
  std::map<std::string, LayerStats> merged;
  auto& r = registry();
  std::lock_guard lock(r.mutex);
  for (const auto& buffer : r.buffers)
    for (const auto& [name, stats] : buffer->layers) {
      auto& m = merged[std::string(name)];
      m.count += stats.count;
      m.total_ns += stats.total_ns;
      m.self_ns += stats.self_ns;
      m.durations_ns.insert(m.durations_ns.end(), stats.durations_ns.begin(),
                            stats.durations_ns.end());
      m.values.insert(m.values.end(), stats.values.begin(), stats.values.end());
    }
  return merged;
}

void Tracer::reset() {
  auto& r = registry();
  std::lock_guard lock(r.mutex);
  for (auto& buffer : r.buffers) {
    buffer->raw.clear();
    buffer->layers.clear();
  }
}

void Tracer::write(const std::string& dir) {
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/trace.json");
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto& r = registry();
    std::lock_guard lock(r.mutex);
    for (const auto& buffer : r.buffers)
      for (const auto& span : buffer->raw) {
        out << (first ? "" : ",") << "\n{\"name\":\""
            << obs::json_escape(span.name) << "\",\"ph\":\"X\",\"pid\":1,"
            << "\"tid\":" << (buffer->tid * 2 + static_cast<std::uint32_t>(span.lane))
            << ",\"ts\":" << static_cast<double>(span.start) / 1000.0
            << ",\"dur\":" << static_cast<double>(span.end - span.start) / 1000.0
            << ",\"args\":{\"request\":" << span.request << ",\"id\":" << span.id
            << ",\"parent\":" << span.parent << "}}";
        first = false;
      }
    out << "\n]}\n";
  }
  std::ofstream out(dir + "/layers.json");
  out << "{\"schema\":\"optdm-bench-layers/1\",\"layers\":{";
  bool first = true;
  for (const auto& [name, stats] : layers()) {
    out << (first ? "" : ",") << "\n\"" << obs::json_escape(name)
        << "\":{\"count\":" << stats.count
        << ",\"total_ms\":" << stats.total_ns / 1e6
        << ",\"self_ms\":" << stats.self_ns / 1e6;
    if (!stats.durations_ns.empty())
      out << ",\"p50_us\":" << util::percentile(stats.durations_ns, 50) / 1e3
          << ",\"p99_us\":" << util::percentile(stats.durations_ns, 99) / 1e3;
    if (!stats.values.empty())
      out << ",\"value_mean\":" << mean_of(stats.values)
          << ",\"value_count\":" << stats.values.size();
    out << "}";
    first = false;
  }
  out << "\n}}\n";
}

}  // namespace optdm::bench
