// ServiceClient — a small blocking client for the cooloptd protocol, used
// by `cooloptctl client`, the service test suite, and the benches.
//
// The client is deliberately dumb: it frames lines and moves bytes. All
// interpretation stays in wire.h (parse/encode), so a test comparing
// "bytes over the socket" against "bytes from a direct engine call" goes
// through zero client-side transformation.
//
// Supports pipelining: send_line() any number of requests, then
// recv_line() the same number of responses (per-connection responses may
// arrive out of request order — correlate by id; see docs/service.md).
//
// Robustness (docs/service.md "Timeouts and retries"): set_timeout_ms()
// bounds every wait for response bytes, so a stalled or half-closed
// server can no longer hang a caller forever, and call_with_retry()
// layers bounded reconnect-and-resend attempts with capped exponential
// backoff and seeded deterministic jitter on top — for idempotent verbs
// only, so a retry can never double-apply an action.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/wire.h"

namespace coolopt::service {

class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;

  /// Connects (IPv4). Returns false and fills last_error() on failure.
  /// The address is remembered so call_with_retry() can reconnect.
  bool connect(const std::string& host, uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Ceiling on each wait for response bytes, applied by recv_line().
  /// 0 (the default) blocks forever — the historical behavior. On expiry
  /// recv_line returns nullopt with timed_out() set, and the connection
  /// should be treated as poisoned (a late response would desync framing).
  void set_timeout_ms(uint64_t timeout_ms) { timeout_ms_ = timeout_ms; }
  uint64_t timeout_ms() const { return timeout_ms_; }
  /// True when the previous recv_line()/call() failed on the deadline
  /// rather than an error or EOF.
  bool timed_out() const { return timed_out_; }

  /// Writes one request line (newline appended here).
  bool send_line(std::string_view line);

  /// Blocks for the next response line (without the trailing newline),
  /// at most timeout_ms(). nullopt on EOF / error / timeout — see
  /// last_error() and timed_out().
  std::optional<std::string> recv_line();

  /// send_line + recv_line for the non-pipelined case.
  std::optional<std::string> call(std::string_view line);

  /// Bounded attempts with capped exponential backoff: backoff before
  /// attempt k (k >= 2) is base_backoff_ms * 2^(k-2) capped at
  /// max_backoff_ms, scaled by a deterministic jitter factor in [0.5, 1)
  /// drawn from `seed` — same seed, same backoff schedule, reproducible
  /// campaigns.
  struct RetryPolicy {
    int attempts = 3;
    uint64_t base_backoff_ms = 10;
    uint64_t max_backoff_ms = 200;
    uint64_t seed = 1;
  };

  /// Encodes and calls `request`, reconnecting (to the last connect()
  /// address) and retrying on EOF, error, or timeout — but only for
  /// idempotent verbs; non-idempotent requests get exactly one attempt
  /// regardless of the policy. A failed exchange closes the connection
  /// first: after a timeout or mid-frame EOF the stream position is
  /// unknowable, so resuming it could desync framing.
  std::optional<std::string> call_with_retry(const WireRequest& request,
                                             const RetryPolicy& policy);
  /// call_with_retry with the default RetryPolicy.
  std::optional<std::string> call_with_retry(const WireRequest& request);

  /// Attempts consumed by the last call_with_retry (1 == first try won).
  int last_attempts() const { return last_attempts_; }

  const std::string& last_error() const { return error_; }

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last returned line
  std::string error_;
  std::string host_;
  uint16_t port_ = 0;
  uint64_t timeout_ms_ = 0;
  bool timed_out_ = false;
  int last_attempts_ = 0;
};

}  // namespace coolopt::service
