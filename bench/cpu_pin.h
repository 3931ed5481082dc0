// PinToOneCpu: pins the calling thread to one CPU for a scope, so a
// measurement sees the pool sizes and scheduling of a process confined to
// one CPU (perfbench runs cooloptd under `taskset -c 0`). Shared by
// bench/perf_scale.cpp and tests/util/thread_pool_test.cpp.
#pragma once

#include <sched.h>

namespace coolopt::bench {

/// Pins the calling thread to the first CPU it may run on, for the
/// object's lifetime; threads it starts meanwhile inherit the one-CPU mask.
/// The original mask comes back on destruction. A host that refuses the
/// pin runs unpinned (pinned() is false).
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &original_)) ++cpu;
    if (cpu == CPU_SETSIZE) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(original_), &original_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  bool pinned() const { return pinned_; }
  /// The number of CPUs the thread was allowed before the pin.
  int original_cpus() const { return CPU_COUNT(&original_); }

 private:
  cpu_set_t original_{};
  bool pinned_ = false;
};

}  // namespace coolopt::bench
