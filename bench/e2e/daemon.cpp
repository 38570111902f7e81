#include "daemon.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "svc/client.hpp"

extern char** environ;

namespace optdm::bench {

namespace {

/// Reads the child's stdout until the listening line; returns the port.
std::uint16_t read_port(int fd) {
  const std::string marker = "listening on 127.0.0.1:";
  std::string seen;
  char buffer[256];
  for (;;) {
    const auto n = ::read(fd, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("optdm_served exited before listening");
    seen.append(buffer, static_cast<std::size_t>(n));
    const auto at = seen.find(marker);
    if (at == std::string::npos) continue;
    const auto digits = seen.find_first_not_of("0123456789", at + marker.size());
    if (digits == std::string::npos) continue;  // port not complete yet
    return static_cast<std::uint16_t>(
        std::stoi(seen.substr(at + marker.size(), digits - at - marker.size())));
  }
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace

Daemon::Daemon(const std::string& binary) {
  std::vector<std::string> args = {binary, "--listen=0",
                                   "--workers=" + std::to_string(kWorkers)};
  std::vector<std::string> env = {"OPTDM_THREADS=" +
                                  std::to_string(kLibraryThreads)};
  for (char** e = environ; *e; ++e)
    if (std::string(*e).rfind("OPTDM_", 0) != 0) env.emplace_back(*e);

  // Everything exec needs is built before fork: the child only calls
  // async-signal-safe functions.
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (auto& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  try {
    port_ = read_port(out_fd_);
  } catch (...) {
    ::kill(pid_, SIGKILL);
    wait_exit(pid_);
    ::close(out_fd_);
    throw;
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    wait_exit(pid_);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

svc::StatsWire Daemon::stats() const {
  svc::Client::Options options;
  options.port = port_;
  svc::Client client(options);
  return client.stats();
}

void Daemon::shutdown() {
  {
    svc::Client::Options options;
    options.port = port_;
    svc::Client client(options);
    client.shutdown_server();
  }
  // Drain stdout so the daemon's final line never hits a closed pipe.
  char buffer[256];
  while (::read(out_fd_, buffer, sizeof buffer) > 0) {
  }
  const int code = wait_exit(pid_);
  pid_ = -1;
  if (code != 0)
    throw std::runtime_error("optdm_served exited with status " +
                             std::to_string(code));
}

}  // namespace optdm::bench
