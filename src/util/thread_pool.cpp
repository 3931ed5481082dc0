#include "util/thread_pool.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>

namespace coolopt::util {

size_t ThreadPool::default_workers() {
  // The CPUs this process may run on, not the host's: a process confined to
  // one CPU gets one worker instead of a pool that time-slices that CPU.
  // The mask read is the process's (its main thread's, whose id is the
  // pid), whichever thread asks. A host too big for a cpu_set_t falls back
  // to the hardware count.
  size_t cpus = std::thread::hardware_concurrency();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(getpid(), sizeof(allowed), &allowed) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&allowed));
  }
  return std::clamp<size_t>(cpus, 1, kMaxDefaultWorkers);
}

ThreadPool::ThreadPool(size_t workers) {
  if (workers == 0) workers = default_workers();
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  // Each worker remembers the last parallel_for generation it served so a
  // single notify_all can wake every worker exactly once per range.
  uint64_t last_pf_gen = 0;
  for (;;) {
    const std::function<void(size_t)>* pf_fn = nullptr;
    size_t pf_count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || (pf_fn_ != nullptr && pf_gen_ != last_pf_gen);
      });
      if (pf_fn_ == nullptr || pf_gen_ == last_pf_gen) return;  // stopping_
      // Join the active range. The membership count is taken under the
      // lock, so the caller cannot observe completion (and retire pf_fn_)
      // while this worker is inside.
      last_pf_gen = pf_gen_;
      ++pf_workers_inside_;
      pf_fn = pf_fn_;
      pf_count = pf_count_;
    }
    pf_run_range(*pf_fn, pf_count);
    std::unique_lock<std::mutex> lock(mu_);
    --pf_workers_inside_;
    if (pf_workers_inside_ == 0 &&
        pf_cursor_.load(std::memory_order_relaxed) >= pf_count_) {
      pf_done_cv_.notify_all();
    }
  }
}

void ThreadPool::pf_run_range(const std::function<void(size_t)>& fn,
                              size_t count) {
  for (;;) {
    const size_t i = pf_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    try {
      fn(i);
    } catch (...) {
      pf_errors_[i] = std::current_exception();
      size_t prev = pf_first_error_.load(std::memory_order_relaxed);
      while (i < prev && !pf_first_error_.compare_exchange_weak(
                             prev, i, std::memory_order_relaxed)) {
      }
    }
  }
}

void ThreadPool::parallel_for(size_t count,
                              const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  std::scoped_lock serial(pf_serial_mu_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (pf_errors_.size() < count) pf_errors_.resize(count);  // grow-only
    std::fill_n(pf_errors_.begin(), static_cast<long>(count),
                std::exception_ptr{});
    pf_first_error_.store(std::numeric_limits<size_t>::max(),
                          std::memory_order_relaxed);
    pf_cursor_.store(0, std::memory_order_relaxed);
    pf_count_ = count;
    pf_fn_ = &fn;
    ++pf_gen_;
  }
  work_cv_.notify_all();

  // Work the range on the calling thread too: progress never waits on a
  // worker waking up.
  pf_run_range(fn, count);

  {
    std::unique_lock<std::mutex> lock(mu_);
    pf_done_cv_.wait(lock, [this] {
      return pf_workers_inside_ == 0 &&
             pf_cursor_.load(std::memory_order_relaxed) >= pf_count_;
    });
    // Retire the range inside the same critical section the wait completed
    // in: a worker acquiring mu_ after this sees a null pf_fn_ and cannot
    // join a stale generation.
    pf_fn_ = nullptr;
  }

  const size_t bad = pf_first_error_.load(std::memory_order_relaxed);
  if (bad != std::numeric_limits<size_t>::max()) {
    std::rethrow_exception(std::exchange(pf_errors_[bad], nullptr));
  }
}

}  // namespace coolopt::util
