// optdm_bench — the end-to-end benchmark of optdm.
//
// One command per workload: it sets up, measures for --seconds, checks
// every output, and prints each end-to-end metric as
// `metric <name> <value> <unit> <samples>`, then the output digest.  It
// exits 1 when any check fails.  With --trace=DIR it instead replays the
// same seeded inputs in-process, records a span around every call into a
// layer, prints `layer <name> <value> <unit> <count>` lines and writes
// DIR/trace.json (Chrome trace) and DIR/layers.json.
//
//   optdm_bench --workload=warm_hits --seed=1
//   optdm_bench --workload=sweep --seed=7 --seconds=15
//   optdm_bench --workload=mixed_traffic --seed=1 --trace=build-bench/trace/mixed
//   optdm_bench --workload=cold_compile --seed=1 --smoke

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>

#include "bench_util.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

const char* kUsage =
    "usage: optdm_bench --workload=W [--seed=N] [--seconds=S] [--smoke]\n"
    "                   [--trace=DIR] [--write-expected]\n"
    "workloads: warm_hits cold_compile mixed_traffic sweep\n";

std::string executable_dir() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : self.parent_path().string();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace optdm;
  try {
    const util::CliArgs args(argc, argv);
    const std::set<std::string> known = {
        "workload", "seed", "seconds", "smoke", "trace", "write-expected", "help"};
    for (const auto& name : args.names())
      if (!known.count(name))
        throw std::runtime_error("unknown flag --" + name + "\n" + kUsage);
    if (args.get_bool("help") || !args.has("workload")) {
      std::cout << kUsage;
      return args.get_bool("help") ? 0 : 2;
    }

    bench::RunConfig config;
    config.workload = args.get("workload");
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.smoke = args.get_bool("smoke");
    config.seconds = args.get_double("seconds", config.smoke ? 0.5 : 20.0);
    if (!(config.seconds > 0)) throw std::runtime_error("--seconds must be positive");
    config.trace_dir = args.get("trace");
    config.bin_dir = executable_dir();
    config.work_dir = config.bin_dir + "/work";
    config.expected_dir = OPTDM_BENCH_EXPECTED_DIR;
    config.write_expected = args.get_bool("write-expected");
    std::filesystem::create_directories(config.work_dir);

    // The generator uses at most 3 threads and 2 connections; refuse to
    // run where that would oversubscribe the machine.
    if (bench::nproc() < 3)
      throw std::runtime_error("need at least 3 CPUs, have " +
                               std::to_string(bench::nproc()));
    // Every library pool in this process and the daemons it spawns.
    ::setenv("OPTDM_THREADS", std::to_string(bench::kLibraryThreads).c_str(), 1);

    bench::print_machine(std::cout);
    std::cout << "workload " << config.workload << " seed " << config.seed
              << " seconds " << config.seconds
              << (config.trace_dir.empty() ? "" : " traced")
              << (config.smoke ? " smoke" : "") << '\n';

    bench::Report report(std::cout);
    if (!config.trace_dir.empty()) {
      bench::run_traced(config, report);
    } else if (config.workload == "warm_hits") {
      bench::run_warm_hits(config, report);
    } else if (config.workload == "cold_compile") {
      bench::run_cold_compile(config, report);
    } else if (config.workload == "mixed_traffic") {
      bench::run_mixed_traffic(config, report);
    } else if (config.workload == "sweep") {
      bench::run_sweep(config, report);
    } else {
      throw std::runtime_error("unknown workload '" + config.workload + "'\n" +
                               kUsage);
    }
    std::cout << "attempted " << report.attempted << '\n'
              << "failed " << report.failed << '\n'
              << "correct " << (report.ok() ? 1 : 0) << std::endl;
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cout << std::flush;
    std::cerr << "optdm_bench: " << e.what() << '\n';
    return 2;
  }
}
