// AdmissionQueue: the bounded queue between cooloptd's reader threads and
// its workers. The cases carried over from the lock-free queue it replaced
// keep that queue's `MpscQueue` suite name, so their history reads
// continuously across the swap; the cases new with AdmissionQueue (many
// consumers, priority limits, pausing) use its own name. Run under the
// tsan preset, the stress cases are also the queue's data-race certificate.
#include "service/admission_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace coolopt::service {
namespace {

TEST(MpscQueue, SingleProducerFifo) {
  AdmissionQueue<int> q(16);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.try_push(i), PushResult::kOk);
  EXPECT_EQ(q.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop(), std::optional<int>(i));
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpscQueue, CapacityBoundsAdmission) {
  AdmissionQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_EQ(q.try_push(1), PushResult::kOk);
  EXPECT_EQ(q.try_push(2), PushResult::kOk);
  EXPECT_EQ(q.try_push(3), PushResult::kOk);
  EXPECT_EQ(q.try_push(4), PushResult::kFull);
  EXPECT_EQ(q.size(), 3u);
  // Popping frees a slot immediately.
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_EQ(q.try_push(5), PushResult::kOk);
  EXPECT_EQ(q.high_water(), 3u);
}

TEST(MpscQueue, ZeroCapacityClampsToOne) {
  AdmissionQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_EQ(q.try_push(1), PushResult::kOk);
  EXPECT_EQ(q.try_push(2), PushResult::kFull);
}

TEST(MpscQueue, CloseRejectsNewButDrainsAccepted) {
  AdmissionQueue<int> q(8);
  EXPECT_EQ(q.try_push(1), PushResult::kOk);
  EXPECT_EQ(q.try_push(2), PushResult::kOk);
  q.close();
  EXPECT_EQ(q.try_push(3), PushResult::kClosed);
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  // Closed and drained: every further pop returns nullopt without blocking.
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpscQueue, CloseIsIdempotent) {
  AdmissionQueue<int> q(4);
  q.close();
  q.close();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpscQueue, BlockingPopWakesOnPush) {
  AdmissionQueue<int> q(4);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::optional<int>(42)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(q.try_push(42), PushResult::kOk);
  consumer.join();
}

TEST(MpscQueue, BlockingPopWakesOnClose) {
  AdmissionQueue<int> q(4);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

/// Multi-producer stress with one consumer: every accepted item is
/// delivered exactly once, and each producer's items arrive in that
/// producer's push order (implied by the queue's global FIFO).
TEST(MpscQueue, MultiProducerStressExactlyOnceAndPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  // Item encodes (producer, sequence).
  AdmissionQueue<std::pair<int, int>> q(256);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Retry on kFull: the stress wants every item through so the
        // exactly-once accounting is exact.
        while (q.try_push({p, i}) == PushResult::kFull) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::map<int, int> next_seq;  // producer -> expected next sequence
  int received = 0;
  std::thread consumer([&] {
    while (received < kProducers * kPerProducer) {
      const auto item = q.pop();
      ASSERT_TRUE(item.has_value());
      const auto [p, i] = *item;
      EXPECT_EQ(next_seq[p], i) << "producer " << p << " out of order";
      next_seq[p] = i + 1;
      ++received;
    }
  });

  for (std::thread& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_GE(q.high_water(), 1u);
  EXPECT_LE(q.high_water(), q.capacity());
}

/// Shutdown race: producers keep pushing while the queue closes. Accepted
/// items (kOk) must all be delivered; everything after close must report
/// kClosed; nothing is duplicated or lost.
TEST(MpscQueue, ShutdownDeliversAcceptedExactlyOnce) {
  constexpr int kProducers = 4;
  AdmissionQueue<int> q(64);
  std::atomic<int> accepted{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const PushResult r = q.try_push(1);
        if (r == PushResult::kOk) accepted.fetch_add(1);
        if (r == PushResult::kClosed) break;
        std::this_thread::yield();
      }
    });
  }

  int received = 0;
  std::thread consumer([&] {
    while (q.pop().has_value()) ++received;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  stop.store(true);
  for (std::thread& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(received, accepted.load());
  // The post-drain queue stays permanently empty and non-blocking.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpscQueue, MoveOnlyPayload) {
  AdmissionQueue<std::unique_ptr<int>> q(4);
  EXPECT_EQ(q.try_push(std::make_unique<int>(7)), PushResult::kOk);
  const auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

/// 4 producers x 4 consumers, twice: once run to completion, once with a
/// drain (close) that starts mid-stream. Every accepted item is delivered
/// exactly once, to exactly one consumer; nothing accepted is lost.
TEST(AdmissionQueue, MultiProducerMultiConsumerExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  for (const bool drain_mid_stream : {false, true}) {
    AdmissionQueue<int> q(64);
    std::vector<std::atomic<int>> delivered(kProducers * kPerProducer);
    std::atomic<int> accepted{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        while (const std::optional<int> item = q.pop()) {
          delivered[static_cast<size_t>(*item)].fetch_add(1);
        }
      });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          PushResult r;
          while ((r = q.try_push(p * kPerProducer + i)) == PushResult::kFull) {
            std::this_thread::yield();
          }
          if (r == PushResult::kClosed) return;
          accepted.fetch_add(1);
        }
      });
    }
    if (drain_mid_stream) {
      // Close once about a quarter of the stream is through.
      while (accepted.load() < kPerProducer) std::this_thread::yield();
      q.close();
    }
    for (std::thread& t : producers) t.join();
    q.close();
    for (std::thread& t : consumers) t.join();

    int total = 0;
    for (const std::atomic<int>& hits : delivered) {
      ASSERT_LE(hits.load(), 1) << "duplicate delivery";
      total += hits.load();
    }
    EXPECT_EQ(total, accepted.load()) << "drain_mid_stream=" << drain_mid_stream;
    if (!drain_mid_stream) {
      EXPECT_EQ(total, kProducers * kPerProducer);
    }
    EXPECT_EQ(q.size(), 0u);
    EXPECT_LE(q.high_water(), q.capacity());
  }
}

/// A limit below capacity (a priority share) sheds at that depth and
/// reports the depth the decision saw; the full capacity stays reachable
/// with a larger limit.
TEST(AdmissionQueue, LimitBelowCapacitySheds) {
  AdmissionQueue<int> q(8);
  size_t depth = 99;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(q.try_push(i, 4, &depth), PushResult::kOk);
    EXPECT_EQ(depth, static_cast<size_t>(i + 1));
  }
  EXPECT_EQ(q.try_push(4, 4, &depth), PushResult::kFull);
  EXPECT_EQ(depth, 4u);
  EXPECT_EQ(q.try_push(4, 7, &depth), PushResult::kOk);
  EXPECT_EQ(depth, 5u);
  // A limit above capacity is clamped to it.
  for (int i = 5; i < 8; ++i) {
    EXPECT_EQ(q.try_push(i, 100), PushResult::kOk);
  }
  EXPECT_EQ(q.try_push(8, 100, &depth), PushResult::kFull);
  EXPECT_EQ(depth, 8u);
  q.close();
  EXPECT_EQ(q.try_push(9, 100, &depth), PushResult::kClosed);
  EXPECT_EQ(depth, 8u);
}

/// A paused queue admits but hands out nothing — including to a consumer
/// that was already blocked in pop() when the pause began — until it is
/// unpaused, or closed (which overrides the pause so a drain finishes).
TEST(AdmissionQueue, PausedQueueHoldsItemsUntilUnpausedOrClosed) {
  for (const bool release_by_close : {false, true}) {
    AdmissionQueue<int> q(8);
    std::atomic<int> popped{0};
    std::thread consumer([&] {
      while (q.pop().has_value()) popped.fetch_add(1);
    });
    // Let the consumer block in pop() on the empty queue, then pause.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.set_paused(true);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(q.try_push(i), PushResult::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(popped.load(), 0);
    EXPECT_EQ(q.size(), 5u);
    if (release_by_close) {
      q.close();  // still paused: the drain must override it
    } else {
      q.set_paused(false);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (popped.load() < 5 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      q.close();
    }
    consumer.join();
    EXPECT_EQ(popped.load(), 5);
    EXPECT_EQ(q.size(), 0u);
  }
}

}  // namespace
}  // namespace coolopt::service
