#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace perfbench {

Daemon::Daemon(const std::vector<std::string>& argv,
               const std::string& log_path) {
  // Everything the child touches is prepared before fork: between fork and
  // exec it may only make async-signal-safe calls.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  int out[2] = {-1, -1};
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(log_fd);
    throw std::runtime_error("pipe2 failed");
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  ::close(out[1]);
  pid_ = pid;
  stdout_fd_ = out[0];
}

Daemon::~Daemon() {
  stop();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

bool Daemon::wait_ready(int timeout_ms, std::string& error) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string buffer;
  for (;;) {
    const size_t eol = buffer.find('\n');
    if (eol != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (line.rfind("cooloptd serving", 0) != 0) continue;
      // "cooloptd serving N machines on HOST:PORT (...)"
      const size_t paren = line.find(" (");
      const size_t colon = line.rfind(':', paren);
      if (paren == std::string::npos || colon == std::string::npos) {
        error = "unparsable serving line: " + line;
        return false;
      }
      port_ = static_cast<uint16_t>(
          std::strtoul(line.c_str() + colon + 1, nullptr, 10));
      if (port_ == 0) {
        error = "no port in serving line: " + line;
        return false;
      }
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      error = "cooloptd did not report its port in time";
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) {
      error = "cooloptd exited before serving (see its log)";
      return false;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

int Daemon::stop(int grace_ms) {
  if (pid_ < 0) return status_;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  status_ = status;
  return status_;
}

}  // namespace perfbench
