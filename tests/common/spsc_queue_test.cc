// Unit + concurrency tests for the SPSC ring buffer.
#include "common/spsc_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

namespace brisk {
namespace {

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(8);
  int out = 0;
  EXPECT_FALSE(q.TryPop(&out));
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(SpscQueueTest, FillsToCapacityThenRejects) {
  SpscQueue<int> q(4);  // rounded up to >= 4 usable slots
  size_t pushed = 0;
  while (q.TryPush(static_cast<int>(pushed))) ++pushed;
  EXPECT_GE(pushed, 4u);
  EXPECT_EQ(q.SizeApprox(), pushed);
  // Popping one frees exactly one slot.
  int out;
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(q.TryPush(99));
  EXPECT_FALSE(q.TryPush(100));
}

TEST(SpscQueueTest, FailedPushDoesNotConsumeValue) {
  // Regression test: back-pressure retry loops must be able to retry
  // the same object (a by-value TryPush would empty it on failure).
  SpscQueue<std::unique_ptr<int>> q(2);
  while (q.TryPush(std::make_unique<int>(7))) {
  }
  auto keep = std::make_unique<int>(42);
  EXPECT_FALSE(q.TryPush(std::move(keep)));
  ASSERT_NE(keep, nullptr);  // still ours after the failed push
  EXPECT_EQ(*keep, 42);
  std::unique_ptr<int> out;
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_TRUE(q.TryPush(std::move(keep)));
  EXPECT_EQ(keep, nullptr);  // consumed on success
}

TEST(SpscQueueTest, FifoOrderPreserved) {
  SpscQueue<int> q(128);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.TryPush(int(i)));
  for (int i = 0; i < 100; ++i) {
    int out;
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
}

TEST(SpscQueueTest, MoveOnlyElements) {
  SpscQueue<std::unique_ptr<int>> q(8);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(5)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(q.TryPop(&out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 5);
}

TEST(SpscQueueTest, MoveOnlyElementsSurviveIndexWraparound) {
  // Regression test for the ring-index arithmetic with move-only
  // payloads (the engine's Envelope / recycled JumboTuplePtr case):
  // cycle several times the queue capacity so head/tail wrap, and
  // check nothing is lost, duplicated, or reordered.
  SpscQueue<std::unique_ptr<int>> q(4);
  const size_t cap = q.capacity();
  int produced = 0;
  int consumed = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    while (q.TryPush(std::make_unique<int>(produced))) ++produced;
    EXPECT_EQ(q.SizeApprox(), cap);  // full at every cycle
    std::unique_ptr<int> out;
    while (q.TryPop(&out)) {
      ASSERT_NE(out, nullptr);
      EXPECT_EQ(*out, consumed);  // FIFO across wraparounds
      ++consumed;
    }
    EXPECT_TRUE(q.EmptyApprox());
  }
  EXPECT_EQ(produced, consumed);
  EXPECT_GT(produced, static_cast<int>(cap) * 4);  // really wrapped
}

TEST(SpscQueueTest, MoveOnlyFullAndEmptyBoundaries) {
  SpscQueue<std::unique_ptr<int>> q(2);
  // Empty boundary: TryPop must fail and leave `out` untouched.
  auto sentinel = std::make_unique<int>(-1);
  EXPECT_FALSE(q.TryPop(&sentinel));
  ASSERT_NE(sentinel, nullptr);
  EXPECT_EQ(*sentinel, -1);
  // Fill to the full boundary.
  size_t pushed = 0;
  while (q.TryPush(std::make_unique<int>(static_cast<int>(pushed)))) {
    ++pushed;
  }
  EXPECT_EQ(pushed, q.capacity());
  // Full boundary: a failed TryPush must leave the argument unmoved,
  // exactly as the doc comment promises (back-pressure loops retry
  // the same object).
  auto retry_me = std::make_unique<int>(777);
  EXPECT_FALSE(q.TryPush(std::move(retry_me)));
  ASSERT_NE(retry_me, nullptr);
  EXPECT_EQ(*retry_me, 777);
  // One pop frees exactly one slot; the retried push then consumes it.
  std::unique_ptr<int> popped;
  EXPECT_TRUE(q.TryPop(&popped));
  EXPECT_TRUE(q.TryPush(std::move(retry_me)));
  EXPECT_EQ(retry_me, nullptr);
  EXPECT_FALSE(q.TryPush(std::make_unique<int>(0)));  // full again
}

TEST(SpscQueueTest, ConcurrentProducerConsumerTransfersEverything) {
  SpscQueue<uint64_t> q(1024);
  constexpr uint64_t kCount = 500000;
  uint64_t sum_consumed = 0;

  std::thread consumer([&] {
    uint64_t received = 0;
    uint64_t v;
    uint64_t expected = 0;
    while (received < kCount) {
      if (q.TryPop(&v)) {
        // FIFO across threads: values arrive in production order.
        ASSERT_EQ(v, expected);
        ++expected;
        sum_consumed += v;
        ++received;
      }
    }
  });
  for (uint64_t i = 0; i < kCount; ++i) {
    while (!q.TryPush(uint64_t(i))) {
    }
  }
  consumer.join();
  EXPECT_EQ(sum_consumed, kCount * (kCount - 1) / 2);
  EXPECT_TRUE(q.EmptyApprox());
}

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  // A 128-slot ring with one slot kept empty: 2^k - 1 usable slots.
  SpscQueue<int> q(100);
  EXPECT_EQ(q.capacity(), 127u);
  size_t pushed = 0;
  while (q.TryPush(1) && pushed < 1000) ++pushed;
  EXPECT_EQ(pushed, 127u);
  // An exact power of two still rounds up: 128 requested gives 255.
  EXPECT_EQ(SpscQueue<int>(128).capacity(), 255u);
}

}  // namespace
}  // namespace brisk
