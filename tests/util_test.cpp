// Unit tests for util: bounded queue, LRU list, stats,
// telemetry bucketing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "util/lru.hpp"
#include "util/queue.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BoundedQueue, BlocksWhenFullUntilPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  q.push(7);
  q.push(8);
  q.close();
  EXPECT_FALSE(q.push(9));
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_EQ(q.pop().value(), 8);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

// Shutdown semantics under contention: every thread blocked in push() or
// pop() when close() lands must return promptly with a definite outcome —
// push false, pop nullopt-after-drain — never hang. This is the property
// graceful SIGINT shutdown (examples/quickstart.cpp) and the checkpoint
// crash tests lean on.
TEST(BoundedQueue, CloseUnblocksProducersAndConsumersWithDefiniteOutcome) {
  BoundedQueue<int> q(2);
  q.push(0);
  q.push(1);  // full: producers below must block

  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  std::atomic<int> push_false{0};
  std::atomic<int> popped{0};
  std::atomic<int> pop_nullopt{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kProducers; ++i) {
    threads.emplace_back([&] {
      if (!q.push(100)) push_false.fetch_add(1);
    });
  }
  for (int i = 0; i < kConsumers; ++i) {
    threads.emplace_back([&] {
      // Drain until closed-and-empty; count both outcomes.
      while (q.pop().has_value()) popped.fetch_add(1);
      pop_nullopt.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : threads) t.join();  // a hang here fails via the test timeout

  // Every consumer saw the closed signal; every item either reached a
  // consumer or its producer was told false. No outcome is indefinite.
  EXPECT_EQ(pop_nullopt.load(), kConsumers);
  EXPECT_EQ(push_false.load() + popped.load(), 2 + kProducers);
}

TEST(BoundedQueue, CloseWakesProducerBlockedOnFullQueue) {
  BoundedQueue<int> q(1);
  q.push(1);
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
  EXPECT_EQ(q.pop().value(), 1);  // close drains, never drops
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, TryPushShedsWhenFullAndKeepsTheItem) {
  BoundedQueue<std::vector<int>> q(1);
  std::vector<int> a{1, 2, 3};
  EXPECT_TRUE(q.try_push(a));  // accepted: moved out
  std::vector<int> b{4, 5};
  EXPECT_FALSE(q.try_push(b));             // full: shed
  EXPECT_EQ(b, (std::vector<int>{4, 5}));  // ...and untouched
  q.close();
  EXPECT_FALSE(q.try_push(b));  // closed: shed too
  EXPECT_EQ(b, (std::vector<int>{4, 5}));
}

TEST(BoundedQueue, TryPopForTimesOutOnEmptyQueue) {
  BoundedQueue<int> q(2);
  const TimePoint t0 = Clock::now();
  EXPECT_FALSE(q.try_pop_for(from_us(5000.0)).has_value());
  // The wait honoured (roughly) the window: no early return, no hang.
  const double waited_us = to_seconds(Clock::now() - t0) * 1e6;
  EXPECT_GE(waited_us, 4000.0);
}

TEST(BoundedQueue, TryPopForPrefersQueuedItemOverElapsedTimeout) {
  // Wakeup-vs-timeout ordering: an item that is already present must win
  // even when the timeout is zero (or has raced to expiry) — the consumer
  // re-checks the queue under the lock before giving up.
  BoundedQueue<int> q(2);
  q.push(11);
  EXPECT_EQ(q.try_pop_for(Duration::zero()).value(), 11);
}

TEST(BoundedQueue, TryPopForReturnsItemArrivingWithinWindow) {
  BoundedQueue<int> q(2);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.push(42);
  });
  // Generous window: the item arrives well before it closes.
  EXPECT_EQ(q.try_pop_for(from_us(2e6)).value(), 42);
  producer.join();
}

TEST(BoundedQueue, TryPopForDrainsThenSignalsClosed) {
  BoundedQueue<int> q(2);
  q.push(1);
  q.close();
  EXPECT_EQ(q.try_pop_for(from_us(1000.0)).value(), 1);
  const TimePoint t0 = Clock::now();
  EXPECT_FALSE(q.try_pop_for(from_us(1e6)).has_value());
  // Closed-and-drained returns immediately instead of burning the window.
  EXPECT_LT(to_seconds(Clock::now() - t0), 0.5);
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++count;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = 0; c < 3; ++c) threads[kProducers + c].join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BoundedQueue, PushOrReclaimReturnsItemWhenClosed) {
  BoundedQueue<std::vector<int>> q(2);
  EXPECT_FALSE(q.push_or_reclaim({1, 2, 3}).has_value());  // accepted
  q.close();
  const auto back = q.push_or_reclaim({4, 5});
  ASSERT_TRUE(back.has_value());  // handed back, not dropped
  EXPECT_EQ(*back, (std::vector<int>{4, 5}));
  EXPECT_EQ(q.pop().value(), (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseHammerLosesNothing) {
  // 2 producers + 2 consumers race against a close() that lands mid-traffic.
  // Invariant: an item is either refused at push (push returned false) or
  // it comes out of a pop exactly once — never lost, never duplicated.
  BoundedQueue<int> q(4);
  constexpr int kPerProducer = 20000;
  std::vector<std::vector<int>> accepted(2), refused(2), popped(2);
  std::atomic<int> pops{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = p * kPerProducer + i;
        (q.push(v) ? accepted : refused)[p].push_back(v);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      while (auto v = q.pop()) {
        popped[c].push_back(*v);
        pops.fetch_add(1);
      }
    });
  }
  // The hammer: close while both sides are still busy.
  while (pops.load() < 1000) std::this_thread::yield();
  q.close();
  for (auto& t : threads) t.join();

  std::vector<int> in, out, all;
  for (const auto& v : accepted) in.insert(in.end(), v.begin(), v.end());
  for (const auto& v : popped) out.insert(out.end(), v.begin(), v.end());
  all = in;
  for (const auto& v : refused) all.insert(all.end(), v.begin(), v.end());
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(out, in);  // multiset equality: no loss, no duplicate
  EXPECT_EQ(all.size(), 2u * kPerProducer);  // each push had one outcome
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_GT(refused[0].size() + refused[1].size(), 0u);  // closed mid-run
}

// Rng state snapshot/restore — the primitive the checkpoint layer's
// deterministic-resume guarantee builds on (src/ckpt).
TEST(Rng, StateRoundTripResumesStreamExactly) {
  Rng rng(0xC0FFEEULL);
  for (int i = 0; i < 1000; ++i) rng();  // advance to an arbitrary point

  const RngState snap = rng.state();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 256; ++i) expected.push_back(rng());

  Rng resumed(12345);  // differently seeded: restore must fully overwrite
  resumed.set_state(snap);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(resumed(), expected[i]);
  // Both generators are now in identical states; derived distributions
  // (doubles, bounded ints) agree too.
  EXPECT_DOUBLE_EQ(resumed.next_double(), rng.next_double());
  EXPECT_EQ(resumed.next_below(977), rng.next_below(977));
}

TEST(Rng, StateIsStableUnderSnapshot) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) rng();
  const RngState a = rng.state();
  const RngState b = rng.state();  // snapshot must not perturb the stream
  EXPECT_EQ(a, b);
  Rng x(1), y(2);
  x.set_state(a);
  y.set_state(a);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(x(), y());
}

TEST(IndexedLru, PushPopOrder) {
  IndexedLruList lru(8);
  lru.push_mru(3);
  lru.push_mru(5);
  lru.push_mru(1);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.pop_lru(), 3u);
  EXPECT_EQ(lru.pop_lru(), 5u);
  EXPECT_EQ(lru.pop_lru(), 1u);
  EXPECT_TRUE(lru.empty());
}

TEST(IndexedLru, RemoveFromMiddle) {
  IndexedLruList lru(8);
  for (std::uint32_t i = 0; i < 5; ++i) lru.push_mru(i);
  lru.remove(2);
  EXPECT_FALSE(lru.contains(2));
  EXPECT_EQ(lru.pop_lru(), 0u);
  EXPECT_EQ(lru.pop_lru(), 1u);
  EXPECT_EQ(lru.pop_lru(), 3u);
  EXPECT_EQ(lru.pop_lru(), 4u);
}

TEST(IndexedLru, TouchMovesToMru) {
  IndexedLruList lru(4);
  lru.push_mru(0);
  lru.push_mru(1);
  lru.push_mru(2);
  lru.touch(0);
  EXPECT_EQ(lru.pop_lru(), 1u);
  EXPECT_EQ(lru.pop_lru(), 2u);
  EXPECT_EQ(lru.pop_lru(), 0u);
}

TEST(IndexedLru, ContainsSingleton) {
  IndexedLruList lru(4);
  EXPECT_FALSE(lru.contains(0));
  lru.push_mru(0);
  EXPECT_TRUE(lru.contains(0));
  lru.remove(0);
  EXPECT_FALSE(lru.contains(0));
}

TEST(RunningStat, Moments) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Percentile, ExactValues) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
}

TEST(RunningStat, MergeMatchesSingleStream) {
  // Parallel Welford combine must reproduce the single-stream moments.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(std::sin(static_cast<double>(i)) * 100.0 + i % 7);
  }
  RunningStat ground;
  for (double x : xs) ground.add(x);

  RunningStat parts[3];
  for (std::size_t i = 0; i < xs.size(); ++i) parts[i % 3].add(xs[i]);
  RunningStat merged;
  for (const RunningStat& p : parts) merged.merge(p);

  EXPECT_EQ(merged.count(), ground.count());
  EXPECT_NEAR(merged.mean(), ground.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), ground.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), ground.min());
  EXPECT_DOUBLE_EQ(merged.max(), ground.max());
  EXPECT_NEAR(merged.sum(), ground.sum(), 1e-9);
}

TEST(RunningStat, MergeEmptySides) {
  RunningStat a, b;
  a.merge(b);  // empty into empty
  EXPECT_EQ(a.count(), 0u);
  b.add(4.0);
  a.merge(b);  // non-empty into empty
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  RunningStat c;
  a.merge(c);  // empty into non-empty is a no-op
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(LatencyHistogram, PercentileInterpolatesWithinBucket) {
  // 100 identical samples at 3 us land in bucket (2, 4]. Every percentile of
  // that distribution is 3; the estimate must never exceed the tracked max
  // (the old nearest-rank answer was the bucket's upper bound, 4).
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.add_us(3.0);
  for (double p : {0.5, 0.95, 0.99, 1.0}) {
    EXPECT_GT(h.percentile_us(p), 2.0) << p;
    EXPECT_LE(h.percentile_us(p), 3.0) << p;
  }
  EXPECT_DOUBLE_EQ(h.percentile_us(1.0), 3.0);
}

TEST(LatencyHistogram, PercentileAcrossBuckets) {
  LatencyHistogram h;
  // 90 samples at ~1.5 us (bucket (1,2]) and 10 at ~1000 us (bucket
  // (512,1024]): p50 sits in the low bucket, p99 in the high one.
  for (int i = 0; i < 90; ++i) h.add_us(1.5);
  for (int i = 0; i < 10; ++i) h.add_us(1000.0);
  EXPECT_GT(h.percentile_us(0.5), 1.0);
  EXPECT_LE(h.percentile_us(0.5), 2.0);
  EXPECT_GT(h.percentile_us(0.99), 512.0);
  EXPECT_LE(h.percentile_us(0.99), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile_us(1.0), 1000.0);
  // Out-of-range p clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(h.percentile_us(1.5), 1000.0);
  EXPECT_GT(h.percentile_us(-0.5), 0.0);
}

TEST(LatencyHistogram, EmptyAndSingleSampleEdgeCases) {
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile_us(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile_us(1.0), 0.0);
  LatencyHistogram one;
  one.add_us(37.0);
  // A single sample: every percentile (including p=0) is that sample's
  // bucket, clamped to the exact max.
  for (double p : {0.0, 0.5, 1.0}) {
    EXPECT_GT(one.percentile_us(p), 32.0) << p;
    EXPECT_LE(one.percentile_us(p), 37.0) << p;
  }
  EXPECT_DOUBLE_EQ(one.percentile_us(1.0), 37.0);
}

TEST(Telemetry, BucketsSplitIntervals) {
  Telemetry tel(/*bucket_ms=*/10.0);
  tel.start();
  const TimePoint t0 = Clock::now();
  // 25 ms of "cpu" spanning ~3 buckets.
  tel.record(TraceCat::kCpuBusy, t0, t0 + std::chrono::milliseconds(25));
  const auto buckets = tel.snapshot();
  ASSERT_GE(buckets.size(), 3u);
  double total = 0;
  for (const auto& b : buckets) total += b.cpu_busy;
  EXPECT_NEAR(total, 0.025, 1e-4);
  EXPECT_NEAR(tel.total_seconds(TraceCat::kCpuBusy), 0.025, 1e-4);
}

TEST(Telemetry, CategoriesIndependent) {
  Telemetry tel(10.0);
  tel.start();
  const TimePoint t0 = Clock::now();
  tel.record(TraceCat::kIoWait, t0, t0 + std::chrono::milliseconds(5));
  tel.record(TraceCat::kGpuBusy, t0, t0 + std::chrono::milliseconds(8));
  EXPECT_NEAR(tel.total_seconds(TraceCat::kIoWait), 0.005, 1e-4);
  EXPECT_NEAR(tel.total_seconds(TraceCat::kGpuBusy), 0.008, 1e-4);
  EXPECT_DOUBLE_EQ(tel.total_seconds(TraceCat::kCpuBusy), 0.0);
}

}  // namespace
}  // namespace gnndrive
