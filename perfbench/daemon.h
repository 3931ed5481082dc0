// A cooloptd child process owned by the benchmark. The destructor always
// reaps it: SIGTERM, then SIGKILL after a grace period, so a run that
// fails half-way never leaves a daemon spinning into the next run. The
// child also gets PR_SET_PDEATHSIG, so it dies with the load generator
// even if that is killed outright.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Forks and execs `argv` (argv[0] is the binary path) with stdout on a
  /// pipe and stderr appended to `log_path`. Throws std::runtime_error when
  /// the process cannot be started.
  Daemon(const std::vector<std::string>& argv, const std::string& log_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reads stdout until cooloptd's "serving ... on host:port" line. False
  /// (with `error` filled) on timeout, EOF or an unparsable line.
  bool wait_ready(int timeout_ms, std::string& error);

  /// SIGTERM (a graceful drain in cooloptd), then SIGKILL once `grace_ms`
  /// has passed; waits until the process has ended. Returns its exit
  /// status as from waitpid (-1 when it was already reaped). Idempotent.
  int stop(int grace_ms = 10000);

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  int status_ = -1;
};

}  // namespace perfbench
