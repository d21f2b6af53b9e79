// The stage runner (core/stage.hpp) on synthetic stages: lifecycle, drain
// order and the abort contract — every worker joins, every item is consumed
// or disposed exactly once, the first error surfaces. The train and serve
// pipelines' abort paths are StageAbort in fault_tolerance_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/stage.hpp"
#include "obs/timeseries.hpp"

namespace gnndrive {
namespace {

// -- The runner alone ---------------------------------------------------------

/// Move-only token: a moved-from Item carries id -1, so disposing one counts
/// nothing — a body that handed its item on cannot have it disposed again.
struct Item {
  int id = -1;
  explicit Item(int i) : id(i) {}
  Item(Item&& o) noexcept : id(std::exchange(o.id, -1)) {}
  Item& operator=(Item&& o) noexcept {
    id = std::exchange(o.id, -1);
    return *this;
  }
};

enum class Where { kNowhere, kSource, kMiddle, kSink };

/// source (2 workers) -> a -> middle (2) -> b -> sink (2), over kItems
/// items; `thrower` throws at item kFailAt, before or after handing it on.
struct Chain {
  static constexpr int kItems = 400;
  static constexpr int kFailAt = 150;

  std::vector<std::atomic<int>> produced = std::vector<std::atomic<int>>(kItems);
  std::vector<std::atomic<int>> consumed = std::vector<std::atomic<int>>(kItems);
  std::vector<std::atomic<int>> disposed = std::vector<std::atomic<int>>(kItems);
  std::atomic<int> next{0};
  std::atomic<int> workers_started{0};
  std::atomic<int> workers_exited{0};

  /// Runs the chain; returns the message of the error join() rethrew.
  std::string run(Where thrower, bool after_push, Gauge* running = nullptr,
                  TimeSeriesSampler* sampler = nullptr) {
    StageGroup group({running, sampler});
    const auto dispose = [this](Item& item) {
      if (item.id >= 0) disposed[item.id].fetch_add(1);
    };
    auto& a = group.link<Item>("a", 2, dispose);
    auto& b = group.link<Item>("b", 2, dispose);
    const auto fail = [&](Where at, int id) {
      if (thrower == at && id == kFailAt) {
        throw std::runtime_error("fail@" + std::to_string(id));
      }
    };
    const auto track = [this](auto&& body) {
      return [this, body](Stage& self, std::uint32_t w) {
        workers_started.fetch_add(1);
        struct Exit {
          std::atomic<int>& n;
          ~Exit() { n.fetch_add(1); }
        } exit{workers_exited};
        body(self, w);
      };
    };
    group.stage("source", 2, track([&](Stage&, std::uint32_t) {
      for (int id = next.fetch_add(1); id < kItems; id = next.fetch_add(1)) {
        if (!after_push) fail(Where::kSource, id);
        produced[id].fetch_add(1);
        a.push(Item(id));
        if (after_push) fail(Where::kSource, id);
      }
    }), {&a});
    group.stage("middle", 2, track([&](Stage&, std::uint32_t) {
      a.each([&](Item& item) {
        const int id = item.id;
        if (!after_push) fail(Where::kMiddle, id);
        b.push(std::move(item));
        if (after_push) fail(Where::kMiddle, id);
      });
    }), {&b});
    group.stage("sink", 2, track([&](Stage&, std::uint32_t) {
      b.each([&](Item& item) {
        if (!after_push) fail(Where::kSink, item.id);
        const Item taken = std::move(item);
        consumed[taken.id].fetch_add(1);
        if (after_push) fail(Where::kSink, taken.id);
      });
    }));
    try {
      group.run();
    } catch (const std::exception& e) {
      EXPECT_EQ(group.state(), StageState::kStopped);
      return e.what();
    }
    EXPECT_EQ(group.state(), StageState::kStopped);
    return "";
  }

  /// Every produced item met exactly one fate; every worker joined.
  void expect_exactly_once() {
    EXPECT_EQ(workers_started.load(), 6);
    EXPECT_EQ(workers_exited.load(), 6);
    for (int id = 0; id < kItems; ++id) {
      ASSERT_EQ(consumed[id].load() + disposed[id].load(), produced[id].load())
          << "item " << id;
      ASSERT_LE(produced[id].load(), 1) << "item " << id;
    }
  }
  int total(const std::vector<std::atomic<int>>& v) const {
    int n = 0;
    for (const auto& x : v) n += x.load();
    return n;
  }
};

TEST(StageRunner, CleanRunConsumesEveryItemAndReleasesTheGroup) {
  MetricsRegistry reg;
  TimeSeriesSampler sampler(&reg, nullptr);
  Gauge& running = reg.gauge("pipeline.running");
  Chain chain;
  EXPECT_EQ(chain.run(Where::kNowhere, false, &running, &sampler), "");
  chain.expect_exactly_once();
  EXPECT_EQ(chain.total(chain.consumed), Chain::kItems);
  EXPECT_EQ(chain.total(chain.disposed), 0);
  EXPECT_EQ(running.value(), 0);
  EXPECT_EQ(running.max(), 1);  // held while the group ran
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.sample_count(), 2u);  // the lease's first and last tick
}

TEST(StageRunner, AThrowAnywhereDrainsEveryItemExactlyOnce) {
  for (const Where where : {Where::kSource, Where::kMiddle, Where::kSink}) {
    for (const bool after_push : {false, true}) {
      SCOPED_TRACE(std::string("stage ") + std::to_string(static_cast<int>(where)) +
                   (after_push ? " after push" : " before push"));
      MetricsRegistry reg;
      Gauge& running = reg.gauge("pipeline.running");
      Chain chain;
      EXPECT_EQ(chain.run(where, after_push, &running),
                "fail@" + std::to_string(Chain::kFailAt));
      chain.expect_exactly_once();
      EXPECT_EQ(running.value(), 0);
      // The abort stopped the chain early: not every item got through.
      EXPECT_LT(chain.total(chain.consumed), Chain::kItems);
    }
  }
}

TEST(StageRunner, FirstErrorSurfacesAfterEveryWorkerExits) {
  StageGroup group;
  std::atomic<int> exited{0};
  group.stage("first", 1, [&](Stage&, std::uint32_t) {
    exited.fetch_add(1);
    throw std::runtime_error("first");
  });
  group.stage("second", 3, [&](Stage&, std::uint32_t) {
    // Fails only once the group is already aborting: a later error.
    while (!group.aborting()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    exited.fetch_add(1);
    throw std::runtime_error("second");
  });
  try {
    group.run();
    ADD_FAILURE() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(exited.load(), 4);
  EXPECT_NO_THROW(group.join());  // the error surfaces once
}

TEST(StageRunner, LinkClosesWhenItsLastProducerExits) {
  // Two stages feed one link; its consumer drains and exits only after both
  // are done, however early the first one finishes.
  StageGroup group;
  auto& q = group.link<int>("q", 4);
  std::atomic<int> sum{0};
  group.stage("early", 1, [&](Stage&, std::uint32_t) { q.push(1); }, {&q});
  group.stage("late", 2, [&](Stage&, std::uint32_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int i = 0; i < 50; ++i) q.push(10);
  }, {&q});
  group.stage("sum", 1, [&](Stage&, std::uint32_t) {
    q.each([&](int& v) { sum.fetch_add(v); });
  });
  group.run();
  EXPECT_EQ(sum.load(), 1 + 2 * 50 * 10);
}

TEST(StageRunner, StopClosesTheOutsideInputAndTimesItems) {
  // The serve shape: an outside queue feeds the workers until stop().
  BoundedQueue<int> requests(64);
  StageGroup group;
  group.feed_from([&] { requests.close(); });
  std::atomic<int> served{0};
  Stage& serve = group.stage("serve", 2, [&](Stage& self, std::uint32_t) {
    while (auto r = requests.pop()) {
      self.time(static_cast<std::uint64_t>(*r), [&] { served.fetch_add(1); });
    }
  });
  group.start();
  EXPECT_EQ(group.state(), StageState::kStarted);
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(requests.push(i));
  group.stop();
  EXPECT_EQ(served.load(), 32);  // the backlog was served, not dropped
  EXPECT_GT(serve.seconds(), 0.0);
  EXPECT_FALSE(requests.push(99));  // admission closed
}

}  // namespace
}  // namespace gnndrive
