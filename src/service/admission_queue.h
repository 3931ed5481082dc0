// Bounded admission queue — the one seam between cooloptd's per-connection
// reader threads (producers) and the service's worker threads (consumers),
// which pop admitted requests themselves.
//
// A mutex, a condition variable and a deque: every decision is taken under
// the one lock, so admission needs no second look. try_push checks the
// caller's share of the capacity (the priority limit) and links the item in
// the same critical section — two readers cannot both see depth 6 against a
// share of 7 and both be admitted. A full queue answers kFull immediately
// instead of blocking, and the service turns that into an explicit shed
// response (docs/service.md "Admission control").
//
// Items leave in global FIFO order (push order across all producers). A
// paused queue hands out nothing, to any consumer, including one already
// blocked in pop(); close() overrides a pause so a drain cannot deadlock.
// Determinism of the *service* does not depend on pop order — responses are
// a pure function of each request. The `service`-labelled tests stress all
// of this under TSan (see CMakePresets.json).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

namespace coolopt::service {

enum class PushResult {
  kOk,      ///< accepted; a consumer will see it
  kFull,    ///< the caller's limit is reached — caller sheds, not enqueued
  kClosed,  ///< close() happened — queue is draining / drained
};

template <typename T>
class AdmissionQueue {
 public:
  /// try_push's default on_accept.
  struct NoAction {
    void operator()() const {}
  };

  /// `capacity` bounds the number of accepted-but-not-yet-popped items;
  /// at least 1.
  explicit AdmissionQueue(size_t capacity)
      : capacity_(std::max<size_t>(capacity, 1)) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Accepts `value` unless the queue is closed or already holds `limit`
  /// items (clamped to capacity()). When `depth` is set it receives the
  /// size the decision saw: after the push on kOk, before it otherwise.
  /// `on_accept()` runs under the queue's lock once `value` is accepted,
  /// before any consumer can pop it: what it counts is counted before the
  /// item can be answered.
  template <typename OnAccept = NoAction>
  PushResult try_push(T value,
                      size_t limit = std::numeric_limits<size_t>::max(),
                      size_t* depth = nullptr, OnAccept&& on_accept = {}) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (depth != nullptr) *depth = items_.size();
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= std::min(limit, capacity_)) return PushResult::kFull;
      on_accept();
      items_.push_back(std::move(value));
      high_water_ = std::max(high_water_, items_.size());
      if (depth != nullptr) *depth = items_.size();
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks until an item is available and the queue is not paused (or is
  /// closed); returns nullopt once the queue is closed AND drained, and
  /// keeps returning it.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || (!paused_ && !items_.empty()); });
    if (items_.empty()) return std::nullopt;
    std::optional<T> value(std::move(items_.front()));
    items_.pop_front();
    return value;
  }

  /// Accepted-but-not-popped items.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  /// Highest size() ever reached.
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }
  size_t capacity() const { return capacity_; }

  /// While paused, pop() hands out nothing (admission is unaffected).
  void set_paused(bool paused) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      paused_ = paused;
    }
    cv_.notify_all();
  }

  /// Rejects future pushes and wakes every consumer; already-accepted items
  /// drain first, even from a paused queue. Idempotent; callable from any
  /// thread.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  size_t high_water_ = 0;
  bool paused_ = false;
  bool closed_ = false;
};

}  // namespace coolopt::service
