// A small fixed-size worker pool for batch solves: parallel_for is its one
// entry point (PlanEngine, FleetEngine and EvalEngine fan out through it).
//
// Design goals, in order: deterministic result placement (callers index
// output slots by task id, so the schedule never affects results),
// exception transparency (the first task exception, in task order, is
// rethrown on the caller's thread), and zero cleverness — a mutex + condvar
// rendezvous is plenty for the "tens of solves per batch" workloads the
// engines fan out. Workers are started once and live for the pool's
// lifetime.
//
// parallel_for is allocation-free in steady state: the range is published
// through persistent members (a generation counter wakes the workers) and
// indices are pulled off a shared atomic cursor. The only allocations are
// the grow-only error slot array on the first (or widest) call, and the
// exception objects themselves when a callback actually throws.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace coolopt::util {

class ThreadPool {
 public:
  /// Starts `workers` threads; 0 picks default_workers().
  explicit ThreadPool(size_t workers = 0);
  /// Joins the workers (no range can be in flight: parallel_for blocks).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, count) across the pool and blocks until
  /// all complete. The calling thread works the range alongside the
  /// workers, so progress never depends on a worker being free. If any
  /// invocation throws, the first exception (in task order, not completion
  /// order — deterministic) is rethrown here after the whole range has
  /// been attempted. Concurrent parallel_for calls on one pool serialize
  /// against each other. fn must not call parallel_for on the same pool
  /// (the pool is for leaf-level fan-out).
  void parallel_for(size_t count, const std::function<void(size_t)>& fn);

  /// Default worker count used when the constructor is passed 0: the CPUs
  /// this process may run on (the sched_getaffinity mask of its main
  /// thread, whichever thread asks; std::thread::hardware_concurrency
  /// ignores affinity), clamped to
  /// [1, kMaxDefaultWorkers] so a big host doesn't oversubscribe a small
  /// batch.
  static size_t default_workers();

  static constexpr size_t kMaxDefaultWorkers = 8;

 private:
  void worker_loop();
  /// Pulls indices off pf_cursor_ and runs fn until the range is drained.
  void pf_run_range(const std::function<void(size_t)>& fn, size_t count);

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers: new range / stop
  bool stopping_ = false;

  // --- parallel_for rendezvous (all non-atomics guarded by mu_) ---
  std::mutex pf_serial_mu_;           // serializes parallel_for callers
  std::condition_variable pf_done_cv_;
  const std::function<void(size_t)>* pf_fn_ = nullptr;  // null = no range
  size_t pf_count_ = 0;
  uint64_t pf_gen_ = 0;               // bumped per call; wakes stale workers
  size_t pf_workers_inside_ = 0;      // workers currently running the range
  std::atomic<size_t> pf_cursor_{0};
  std::atomic<size_t> pf_first_error_{0};
  std::vector<std::exception_ptr> pf_errors_;  // grow-only, per-index slots

  std::vector<std::thread> workers_;
};

}  // namespace coolopt::util
