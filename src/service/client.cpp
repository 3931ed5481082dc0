#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/rng.h"
#include "util/strings.h"

namespace coolopt::service {

ServiceClient::~ServiceClient() { close(); }

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      error_(std::move(other.error_)),
      host_(std::move(other.host_)),
      port_(other.port_),
      timeout_ms_(other.timeout_ms_),
      timed_out_(other.timed_out_),
      last_attempts_(other.last_attempts_) {}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    error_ = std::move(other.error_);
    host_ = std::move(other.host_);
    port_ = other.port_;
    timeout_ms_ = other.timeout_ms_;
    timed_out_ = other.timed_out_;
    last_attempts_ = other.last_attempts_;
  }
  return *this;
}

bool ServiceClient::connect(const std::string& host, uint16_t port) {
  close();
  host_ = host;
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = "socket() failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error_ = util::strf("bad address \"%s\"", host.c_str());
    close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error_ = util::strf("connect %s:%u: %s", host.c_str(),
                        static_cast<unsigned>(port), std::strerror(errno));
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  buffer_.clear();
  error_.clear();
  timed_out_ = false;
  return true;
}

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ServiceClient::send_line(std::string_view line) {
  if (fd_ < 0) {
    error_ = "not connected";
    return false;
  }
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = util::strf("send: %s", std::strerror(errno));
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::optional<std::string> ServiceClient::recv_line() {
  timed_out_ = false;
  if (fd_ < 0) {
    error_ = "not connected";
    return std::nullopt;
  }
  // One deadline spans the whole line, not each chunk: a server trickling
  // bytes cannot stretch the wait past timeout_ms_ in total.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms_);
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (timeout_ms_ > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        timed_out_ = true;
        error_ = util::strf("timeout after %llu ms waiting for a response",
                            static_cast<unsigned long long>(timeout_ms_));
        return std::nullopt;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        error_ = util::strf("poll: %s", std::strerror(errno));
        return std::nullopt;
      }
      if (ready == 0) {
        timed_out_ = true;
        error_ = util::strf("timeout after %llu ms waiting for a response",
                            static_cast<unsigned long long>(timeout_ms_));
        return std::nullopt;
      }
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) {
      error_ = "connection closed by server";
      return std::nullopt;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = util::strf("recv: %s", std::strerror(errno));
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::optional<std::string> ServiceClient::call(std::string_view line) {
  if (!send_line(line)) return std::nullopt;
  return recv_line();
}

std::optional<std::string> ServiceClient::call_with_retry(
    const WireRequest& request) {
  return call_with_retry(request, RetryPolicy{});
}

std::optional<std::string> ServiceClient::call_with_retry(
    const WireRequest& request, const RetryPolicy& policy) {
  const std::string line = encode_request(request);
  const int attempts =
      idempotent(request.verb) ? std::max(1, policy.attempts) : 1;
  util::Rng jitter = util::Rng(policy.seed).fork("client.retry");
  last_attempts_ = 0;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      uint64_t backoff = policy.base_backoff_ms;
      for (int k = 2; k < attempt && backoff < policy.max_backoff_ms; ++k) {
        backoff *= 2;
      }
      backoff = std::min(backoff, policy.max_backoff_ms);
      const double scaled =
          static_cast<double>(backoff) * (0.5 + 0.5 * jitter.uniform());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<uint64_t>(scaled)));
    }
    ++last_attempts_;
    if (!connected() && !connect(host_, port_)) continue;
    std::optional<std::string> response = call(line);
    if (response.has_value()) return response;
    // The exchange failed mid-stream (EOF, error, or timeout): the framing
    // position is unknowable, so drop the connection before retrying.
    close();
  }
  return std::nullopt;
}

}  // namespace coolopt::service
