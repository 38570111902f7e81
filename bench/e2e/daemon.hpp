#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "svc/serialize.hpp"

/// \file daemon.hpp
/// One `optdm_served` child process: spawned on an ephemeral port with
/// kWorkers workers, kLibraryThreads library threads and a memory-only
/// cache, read for its `listening on` line, stopped with the protocol's
/// shutdown frame, and always reaped.

namespace optdm::bench {

class Daemon {
 public:
  /// Spawns the daemon at `binary` and blocks until it listens.  Throws
  /// on failure.
  explicit Daemon(const std::string& binary);
  /// Kills and reaps the daemon if `shutdown` was not called.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }

  /// The daemon's aggregate counters (a stats frame).
  svc::StatsWire stats() const;

  /// Shutdown frame, then waits for exit; throws unless it exits 0.
  void shutdown();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace optdm::bench
