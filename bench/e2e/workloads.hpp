#pragma once

#include "bench_util.hpp"

/// \file workloads.hpp
/// The benchmark's workloads.  Each untraced run measures the real
/// system end to end and prints every end-to-end metric; `run_traced`
/// replays the same seeded inputs in-process through each layer's public
/// functions and prints the per-layer metrics.

namespace optdm::bench {

/// Closed loop, 2 connections, every request a memory hit.
void run_warm_hits(const RunConfig& config, Report& report);
/// Closed loop, 2 connections, every request a distinct cold compile.
void run_cold_compile(const RunConfig& config, Report& report);
/// Open loop: Poisson arrivals of warm compiles, cold compiles and
/// simulates over torus:8x8 and torus:16x16, pipelined on 2 connections.
void run_mixed_traffic(const RunConfig& config, Report& report);
/// In-process sharded sweeps over Table 5's phases; no service.
void run_sweep(const RunConfig& config, Report& report);

/// The traced replay of `config.workload`.
void run_traced(const RunConfig& config, Report& report);

}  // namespace optdm::bench
