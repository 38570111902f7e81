#include "bench_util.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>

#include "io/pattern_io.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace optdm::bench {

namespace {

void print_line(std::ostream& out, std::string_view kind,
                std::string_view name, double value, std::string_view unit,
                std::size_t samples, std::string_view note = {}) {
  out << kind << ' ' << name << ' ' << std::setprecision(17) << value << ' '
      << unit << ' ' << samples;
  if (!note.empty()) out << ' ' << note;
  out << '\n';
}

}  // namespace

void Report::metric(std::string_view name, double value,
                    std::string_view unit, std::size_t samples) {
  print_line(out_, "metric", name, value, unit, samples);
}

void Report::extra(std::string_view name, double value, std::string_view unit,
                   std::size_t samples) {
  print_line(out_, "extra", name, value, unit, samples);
}

void Report::percentile(std::string_view name,
                        const std::vector<double>& samples, double p,
                        std::string_view unit, bool is_extra) {
  const std::string_view kind = is_extra ? "extra" : "metric";
  std::ostringstream label;
  label << 'p' << p;
  if (percentile_supported(samples.size(), p)) {
    print_line(out_, kind, name, util::percentile(samples, p), unit,
               samples.size(), label.str());
  } else {
    label << " (fewer than 10 samples beyond it)";
    print_line(out_, kind, name, std::nan(""), unit, samples.size(), label.str());
  }
}

void Report::per_layer(std::string_view name, double value,
                       std::string_view unit, std::size_t count,
                       std::string_view moves) {
  out_ << "layer " << name << ' ' << std::setprecision(17) << value << ' '
       << unit << ' ' << count << ' ' << moves << '\n';
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  // A systematic failure fails every request: the first ones tell.
  constexpr int kPrinted = 20;
  if (++failures_ <= kPrinted) out_ << "check-failed " << what << '\n';
  if (failures_ == kPrinted + 1) out_ << "check-failed (further failures not printed)\n";
}

void Report::digest(const RunConfig& config, std::string_view outputs) {
  std::ostringstream digits;
  digits << std::hex << std::setw(16) << std::setfill('0')
         << util::fnv1a64(outputs);
  const std::string hex = digits.str();
  out_ << "schedule_digest " << hex << '\n';
  if (config.seed != 1) return;
  const std::string path =
      config.expected_dir + "/" + config.workload + ".seed1.digest";
  if (config.write_expected) {
    std::ofstream(path) << hex << '\n';
    out_ << "expected_digest written " << path << '\n';
    return;
  }
  std::ifstream in(path);
  std::string expected;
  in >> expected;
  check(!expected.empty(), "no expected digest at " + path);
  if (!expected.empty())
    check(expected == hex,
          "schedule_digest " + hex + " != expected " + expected);
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

bool percentile_supported(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n >= rank + 10;
}

const topo::TorusNetwork& network_for(const std::string& topology) {
  static const topo::TorusNetwork small(8, 8);
  static const topo::TorusNetwork large(16, 16);
  return topology == "torus:16x16" ? large : small;
}

std::string check_schedule(const topo::Network& net,
                           const core::RequestSet& pattern,
                           const std::string& text, int degree,
                           int lower_bound, int* below_reported_bound) {
  core::Schedule schedule;
  try {
    std::istringstream in(text);
    schedule = io::read_schedule(in, net);
  } catch (const std::exception& e) {
    return std::string("read_schedule: ") + e.what();
  }
  if (const auto err = schedule.validate_against(pattern)) return *err;
  if (schedule.degree() != degree)
    return "reported degree " + std::to_string(degree) + " but schedule has " +
           std::to_string(schedule.degree());
  std::vector<int> out_degree(static_cast<std::size_t>(net.node_count()), 0);
  std::vector<int> in_degree(out_degree.size(), 0);
  int fan = 0;
  for (const auto& request : pattern) {
    fan = std::max(fan, ++out_degree[static_cast<std::size_t>(request.src)]);
    fan = std::max(fan, ++in_degree[static_cast<std::size_t>(request.dst)]);
  }
  if (degree < fan || lower_bound < fan)
    return "degree " + std::to_string(degree) + ", lower bound " +
           std::to_string(lower_bound) + ", fan bound " + std::to_string(fan);
  if (degree < lower_bound) ++*below_reported_bound;
  return {};
}

std::string simulate_line(const svc::SimulateResponse& r, bool& ok) {
  std::ostringstream line;
  line << r.compiled.degree << ' ' << r.compiled.lower_bound << ' '
       << r.tdm_slots << ' ' << r.wdm_slots;
  ok = r.tdm_slots > 0 && r.dynamic.size() == 4;
  for (const auto& row : r.dynamic) {
    line << " K" << row.k << ':' << row.total_slots << '/' << row.total_retries;
    ok = ok && row.completed && !row.missing && row.total_slots > 0;
  }
  if (r.has_paper_rows) {
    line << " aapc " << r.aapc_slots << " multihop " << r.multihop_degree << '/'
         << r.multihop_slots;
    ok = ok && r.multihop_completed;
  }
  return line.str();
}

std::string cells_line(const apps::SweepResult& result) {
  std::ostringstream line;
  for (const auto& cell : result.compiled)
    line << 'c' << cell.degree << ':' << cell.result.total_slots << ' ';
  for (const auto& cell : result.dynamic)
    line << 'd' << cell.result.total_slots << '/' << cell.result.total_retries
         << ' ';
  return line.str();
}

int nproc() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }

void print_machine(std::ostream& out) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  utsname name{};
  ::uname(&name);
  out << "machine nproc=" << nproc() << " cpu=\"" << cpu << "\" kernel="
      << name.release << " compiler=\"" << OPTDM_BENCH_COMPILER
      << "\" build=" << OPTDM_BENCH_BUILD_TYPE << '\n';
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

double children_peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
}

}  // namespace optdm::bench
