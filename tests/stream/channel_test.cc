#include "stream/channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace icewafl {
namespace {

using IntChannel = BoundedChannel<int>;

TEST(ChannelTest, FifoOrder) {
  IntChannel ch(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ch.Push(i));
  ch.Close();
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ch.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ch.Pop(&v));
}

TEST(ChannelTest, CapacityIsClampedToOne) {
  IntChannel ch(0);
  EXPECT_EQ(ch.capacity(), 1u);
}

TEST(ChannelTest, PushBlocksWhenFullUntilPop) {
  IntChannel ch(2);
  EXPECT_TRUE(ch.Push(1));
  EXPECT_TRUE(ch.Push(2));
  EXPECT_EQ(ch.size(), 2u);

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.Push(3));  // blocks: channel full
    third_pushed.store(true);
  });

  // The producer must be parked on the full channel, not completing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(ch.size(), 2u);

  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_GE(ch.stats().blocked_pushes, 1u);
}

TEST(ChannelTest, CloseWakesBlockedPushAndReturnsFalse) {
  IntChannel ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result.store(ch.Push(2) ? 1 : 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(result.load(), -1);  // still blocked
  ch.Close();
  producer.join();
  EXPECT_EQ(result.load(), 0);  // push rejected, item dropped
  // The item queued before Close stays poppable.
  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(ch.Pop(&v));
}

TEST(ChannelTest, CloseWakesBlockedPopAndReturnsFalse) {
  IntChannel ch(4);
  std::atomic<int> result{-1};
  std::thread consumer([&] {
    int v = 0;
    result.store(ch.Pop(&v) ? 1 : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(result.load(), -1);  // still blocked on empty channel
  ch.Close();
  consumer.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_GE(ch.stats().blocked_pops, 1u);
}

TEST(ChannelTest, PoisonDiscardsQueuedItems) {
  IntChannel ch(4);
  EXPECT_TRUE(ch.Push(1));
  EXPECT_TRUE(ch.Push(2));
  ch.Poison();
  int v = 0;
  EXPECT_FALSE(ch.Pop(&v));  // queue discarded, not drained
  EXPECT_FALSE(ch.Push(3));
  EXPECT_TRUE(ch.closed());
  EXPECT_EQ(ch.size(), 0u);
}

TEST(ChannelTest, PoisonWakesBlockedProducer) {
  IntChannel ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result.store(ch.Push(2) ? 1 : 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ch.Poison();
  producer.join();
  EXPECT_EQ(result.load(), 0);
}

TEST(ChannelTest, FailedPushDoesNotCountAsBackpressure) {
  // Regression: a Push parked on a full channel whose wait ends because
  // of Close() used to increment blocked_pushes even though nothing was
  // enqueued — inflating the backpressure signal with aborts.
  IntChannel ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result.store(ch.Push(2) ? 1 : 0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(result.load(), -1);  // parked on the full channel
  ch.Close();
  producer.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_EQ(ch.stats().blocked_pushes, 0u);
  EXPECT_EQ(ch.stats().pushes, 1u);
}

TEST(ChannelTest, SuccessfulPushAfterWaitStillCounts) {
  // The complement: a wait that ends with the item actually enqueued is
  // real backpressure and must be counted.
  IntChannel ch(1);
  EXPECT_TRUE(ch.Push(1));
  std::thread producer([&] { EXPECT_TRUE(ch.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  producer.join();
  EXPECT_GE(ch.stats().blocked_pushes, 1u);
  EXPECT_EQ(ch.stats().pushes, 2u);
}

TEST(ChannelTest, TryPushOutcomesAreCountedByReason) {
  // Regression: rejected TryPush calls were invisible in ChannelStats,
  // so a fanout queue that dropped frames reconciled against nothing.
  // Every kFull and kClosed outcome must land in its own counter.
  IntChannel ch(2);
  EXPECT_EQ(ch.TryPush(1), IntChannel::PushResult::kOk);
  EXPECT_EQ(ch.TryPush(2), IntChannel::PushResult::kOk);
  EXPECT_EQ(ch.TryPush(3), IntChannel::PushResult::kFull);
  EXPECT_EQ(ch.TryPush(4), IntChannel::PushResult::kFull);
  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  EXPECT_EQ(ch.TryPush(5), IntChannel::PushResult::kOk);
  ch.Close();
  EXPECT_EQ(ch.TryPush(6), IntChannel::PushResult::kClosed);
  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.pushes, 3u);  // only accepted items count as pushes
  EXPECT_EQ(stats.try_push_full, 2u);
  EXPECT_EQ(stats.try_push_closed, 1u);
  EXPECT_EQ(stats.blocked_pushes, 0u);  // TryPush never parks
}

TEST(ChannelTest, StatsAddSumsTryPushCounters) {
  ChannelStats a;
  a.pushes = 3;
  a.try_push_full = 2;
  a.try_push_closed = 1;
  a.peak_queued = 4;
  ChannelStats b;
  b.pushes = 5;
  b.try_push_full = 7;
  b.try_push_closed = 9;
  b.peak_queued = 2;
  a.Add(b);
  EXPECT_EQ(a.pushes, 8u);
  EXPECT_EQ(a.try_push_full, 9u);
  EXPECT_EQ(a.try_push_closed, 10u);
  EXPECT_EQ(a.peak_queued, 4u);  // max, not sum
}

TEST(ChannelTest, StatsCountTraffic) {
  IntChannel ch(8);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(ch.Push(i));
  int v = 0;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ch.Pop(&v));
  ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.pushes, 6u);
  EXPECT_EQ(stats.pops, 4u);
  EXPECT_EQ(stats.peak_queued, 6u);
  EXPECT_EQ(stats.blocked_pushes, 0u);
  EXPECT_EQ(stats.blocked_pops, 0u);
}

// ---------------------------------------------------------------------
// Weighted items: the capacity bounds summed weight (the server queues
// a chunk of k tuple frames as one item of weight k).
// ---------------------------------------------------------------------

TEST(ChannelTest, WeightedPushBlocksAtCapacity) {
  IntChannel ch(8);
  bool was_empty = false;
  EXPECT_TRUE(ch.Push(1, 5, &was_empty));
  EXPECT_TRUE(was_empty);
  EXPECT_TRUE(ch.Push(2, 3, &was_empty));
  EXPECT_FALSE(was_empty);
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_EQ(ch.weight(), 8u);

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(ch.Push(3, 4));  // 8 + 4 > 8: must wait
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load());

  // Popping the weight-3 item would not make room; popping weight 5 does.
  int v = 0;
  size_t w = 0;
  ASSERT_TRUE(ch.TryPop(&v, &w));
  EXPECT_EQ(v, 1);
  EXPECT_EQ(w, 5u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(ch.weight(), 7u);
  EXPECT_GE(ch.stats().blocked_pushes, 1u);
}

TEST(ChannelTest, HeavyWaiterDoesNotStarveLightOne) {
  // A heavy producer that still does not fit after a pop must not
  // swallow the wake-up a light producer needs.
  IntChannel ch(4);
  EXPECT_TRUE(ch.Push(0, 1));
  EXPECT_TRUE(ch.Push(0, 3));
  std::atomic<int> landed{0};
  std::thread heavy([&] {
    if (ch.Push(1, 4)) landed.fetch_add(1);
  });
  std::thread light([&] {
    if (ch.Push(2, 1)) landed.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(landed.load(), 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int v = -1;
  ASSERT_TRUE(ch.Pop(&v));  // frees 1: only the light item fits
  while (landed.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(landed.load(), 1) << "the light producer missed its wake-up";
  // Drain everything; the heavy item then lands in the empty channel.
  while (landed.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    if (!ch.TryPop(&v)) std::this_thread::yield();
  }
  EXPECT_EQ(landed.load(), 2);
  ch.Close();  // releases a producer left parked by a failure above
  heavy.join();
  light.join();
}

TEST(ChannelTest, PeakQueuedCountsWeight) {
  IntChannel ch(16);
  EXPECT_TRUE(ch.Push(1, 6));
  EXPECT_EQ(ch.TryPush(2, 4), IntChannel::PushResult::kOk);
  int v = 0;
  ASSERT_TRUE(ch.Pop(&v));
  EXPECT_TRUE(ch.Push(3));
  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.peak_queued, 10u);  // 6 + 4, not 2 items
  EXPECT_EQ(stats.pushes, 3u);
  EXPECT_EQ(stats.pops, 1u);
  EXPECT_EQ(ch.weight(), 5u);
}

TEST(ChannelTest, FullWeightedTryPushReturnsFull) {
  IntChannel ch(8);
  bool was_empty = false;
  EXPECT_EQ(ch.TryPush(1, 6, &was_empty), IntChannel::PushResult::kOk);
  EXPECT_TRUE(was_empty);
  // 6 + 3 > 8 even though only one item is queued.
  EXPECT_EQ(ch.TryPush(2, 3), IntChannel::PushResult::kFull);
  EXPECT_EQ(ch.TryPush(3, 2, &was_empty), IntChannel::PushResult::kOk);
  EXPECT_FALSE(was_empty);
  EXPECT_EQ(ch.TryPush(4, 1), IntChannel::PushResult::kFull);
  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.try_push_full, 2u);
  EXPECT_EQ(stats.pushes, 2u);
  // An item heavier than the capacity is admitted into an empty
  // channel only, so it can never wait forever.
  IntChannel small(2);
  EXPECT_EQ(small.TryPush(1, 5), IntChannel::PushResult::kOk);
  EXPECT_EQ(small.TryPush(2, 1), IntChannel::PushResult::kFull);
}

TEST(ChannelTest, PoisonResetsWeight) {
  IntChannel ch(8);
  EXPECT_TRUE(ch.Push(1, 8));
  EXPECT_EQ(ch.weight(), 8u);
  ch.Poison();
  EXPECT_EQ(ch.weight(), 0u);
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.TryPush(2, 1), IntChannel::PushResult::kClosed);
}

TEST(ChannelTest, ManyProducersOneConsumer) {
  IntChannel ch(3);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.Push(p * kPerProducer + i));
      }
    });
  }
  int64_t sum = 0;
  uint64_t count = 0;
  std::thread consumer([&] {
    int v = 0;
    while (ch.Pop(&v)) {
      sum += v;
      ++count;
    }
  });
  for (std::thread& t : producers) t.join();
  ch.Close();
  consumer.join();
  const int64_t n = kProducers * kPerProducer;
  EXPECT_EQ(count, static_cast<uint64_t>(n));
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_EQ(ch.stats().pushes, static_cast<uint64_t>(n));
  EXPECT_LE(ch.stats().peak_queued, 3u);
}

TEST(ChannelTest, MpmcStressWithMidStreamPoison) {
  // Many producers and consumers hammer a tiny channel while a third
  // party poisons it mid-stream. The test must terminate (no deadlock:
  // every blocked producer and consumer is woken) and the books must
  // balance: every pop observed by a consumer corresponds to a push
  // acknowledged by a producer, and the channel's own counters agree.
  // Run under the tsan preset to verify race-freedom.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  IntChannel ch(2);
  std::atomic<uint64_t> pushed{0};
  std::atomic<uint64_t> popped{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (!ch.Push(i)) return;  // poisoned: stop producing
        pushed.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int v = 0;
      while (ch.Pop(&v)) popped.fetch_add(1);
    });
  }
  // Let traffic flow, then poison while producers and consumers are
  // mid-flight (some of them parked on the full/empty channel).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.Poison();
  for (std::thread& t : producers) t.join();
  for (std::thread& t : consumers) t.join();

  const ChannelStats stats = ch.stats();
  EXPECT_EQ(stats.pushes, pushed.load());
  EXPECT_EQ(stats.pops, popped.load());
  // Poison discards queued items, so pops never exceed pushes, and the
  // gap is exactly what was queued at poison time (at most capacity).
  EXPECT_LE(popped.load(), pushed.load());
  EXPECT_LE(pushed.load() - popped.load(), ch.capacity());
  EXPECT_TRUE(ch.closed());
}

TEST(ChannelTest, BatchChannelMovesBatches) {
  BatchChannel ch(2);
  TupleVector batch;
  batch.resize(3);
  EXPECT_TRUE(ch.Push(std::move(batch)));
  TupleVector out;
  ASSERT_TRUE(ch.Pop(&out));
  EXPECT_EQ(out.size(), 3u);
}

}  // namespace
}  // namespace icewafl
