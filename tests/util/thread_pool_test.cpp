#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "bench/cpu_pin.h"

namespace coolopt::util {
namespace {

TEST(ThreadPool, DefaultWorkerCountIsBounded) {
  EXPECT_GE(ThreadPool::default_workers(), 1u);
  EXPECT_LE(ThreadPool::default_workers(), ThreadPool::kMaxDefaultWorkers);
  ThreadPool pool;
  EXPECT_EQ(pool.worker_count(), ThreadPool::default_workers());
}

// The default counts the CPUs the process may run on, not the host's: the
// process's mask is its main thread's, the thread gtest runs this test on.
// Only that thread is re-pinned, and its mask is put back.
TEST(ThreadPool, DefaultWorkersCountsTheAllowedCpus) {
  int allowed = 0;
  {
    const bench::PinToOneCpu pin;
    if (!pin.pinned()) GTEST_SKIP() << "sched_setaffinity failed";
    allowed = pin.original_cpus();
    EXPECT_EQ(ThreadPool::default_workers(), 1u);
    ThreadPool pool;
    EXPECT_EQ(pool.worker_count(), 1u);
  }
  EXPECT_EQ(ThreadPool::default_workers(),
            std::min<size_t>(static_cast<size_t>(allowed),
                             ThreadPool::kMaxDefaultWorkers));
}

TEST(ThreadPool, ExplicitWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  for (const size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(hits.size(), [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
  }
}

TEST(ThreadPool, ParallelForZeroAndOneItems) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](size_t) { FAIL() << "no indices expected"; });
  std::atomic<int> ran{0};
  pool.parallel_for(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, ParallelForIsReusable) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    std::atomic<size_t> sum{0};
    pool.parallel_for(100, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  ThreadPool pool(8);
  // Several indices throw; the pool must deterministically surface the
  // first one in task order, regardless of which worker hit it first.
  for (int round = 0; round < 10; ++round) {
    try {
      pool.parallel_for(64, [](size_t i) {
        if (i == 7 || i == 23 || i == 55) {
          throw std::runtime_error("boom at " + std::to_string(i));
        }
      });
      FAIL() << "expected parallel_for to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 7");
    }
  }
}

TEST(ThreadPool, ParallelForRunsRemainingTasksAfterError) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(50, [&](size_t i) {
      ran.fetch_add(1);
      if (i == 0) throw std::runtime_error("first");
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error&) {
  }
  // Every index still executed: one failing request must not starve the
  // rest of a batch (PlanEngine relies on this).
  EXPECT_EQ(ran.load(), 50);
}

}  // namespace
}  // namespace coolopt::util
