// Wall-clock scope timing into a Histogram, in microseconds.
//
// The clock is only read when a histogram is actually attached, so a
// ScopedTimer over a nullptr (the unattached fast path) costs one branch on
// construction and one on destruction:
//
//   obs::ScopedTimer timer(
//       obs::maybe_histogram("optimizer.closed_form.solve_us"));
#pragma once

#include <chrono>

#include "obs/metrics.h"

namespace coolopt::obs {

class ScopedTimer {
 public:
  /// `sink` may be nullptr (timer disabled).
  explicit ScopedTimer(Histogram* sink) : sink_(sink) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (sink_ != nullptr) sink_->observe(elapsed_us());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Microseconds since construction (0 when disabled).
  double elapsed_us() const {
    if (sink_ == nullptr) return 0.0;
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::micro>(d).count();
  }

  bool enabled() const { return sink_ != nullptr; }

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace coolopt::obs
