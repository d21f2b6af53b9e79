// Feature buffer manager: the mapping-table state machine of Sect. 4.2 /
// Algorithm 1 / Fig. 6, plus concurrent stress against the deadlock-freedom
// reserve.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/feature_buffer.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

FeatureBuffer make_buffer(std::uint64_t slots, NodeId nodes,
                          std::uint32_t dim = 4) {
  FeatureBufferConfig cfg;
  cfg.num_slots = slots;
  cfg.row_floats = dim;
  return FeatureBuffer(cfg, nodes);
}

TEST(FeatureBuffer, InitialStateAllStandby) {
  auto fb = make_buffer(8, 100);
  EXPECT_EQ(fb.standby_size(), 8u);
  for (NodeId v = 0; v < 100; ++v) {
    const auto e = fb.entry(v);
    EXPECT_EQ(e.slot, kNoSlot);
    EXPECT_FALSE(e.valid);
    EXPECT_EQ(e.ref_count, 0u);
  }
}

TEST(FeatureBuffer, MustLoadThenValidLifecycle) {
  auto fb = make_buffer(4, 10);
  const auto r = fb.check_and_ref(3);
  EXPECT_EQ(r.status, FeatureBuffer::CheckStatus::kMustLoad);
  EXPECT_EQ(fb.entry(3).ref_count, 1u);
  EXPECT_FALSE(fb.entry(3).valid);

  const SlotId slot = fb.allocate_slot(3);
  EXPECT_GE(slot, 0);
  EXPECT_EQ(fb.reverse(slot), 3u);
  EXPECT_EQ(fb.standby_size(), 3u);  // slot left standby

  fb.mark_valid(3);
  EXPECT_TRUE(fb.entry(3).valid);

  // Second reference while valid: reuse.
  const auto r2 = fb.check_and_ref(3);
  EXPECT_EQ(r2.status, FeatureBuffer::CheckStatus::kReady);
  EXPECT_EQ(r2.slot, slot);
  EXPECT_EQ(fb.entry(3).ref_count, 2u);

  fb.release_one(3);
  fb.release_one(3);
  EXPECT_EQ(fb.entry(3).ref_count, 0u);
  EXPECT_EQ(fb.standby_size(), 4u);  // retired to standby
  EXPECT_TRUE(fb.entry(3).valid);    // lazy invalidation: stays valid
}

TEST(FeatureBuffer, InFlightNodeRoutesToWaitList) {
  auto fb = make_buffer(4, 10);
  fb.check_and_ref(5);  // kMustLoad, ref=1, not yet valid
  const auto r = fb.check_and_ref(5);
  EXPECT_EQ(r.status, FeatureBuffer::CheckStatus::kInFlight);
  EXPECT_EQ(fb.entry(5).ref_count, 2u);
}

TEST(FeatureBuffer, WaitValidBlocksUntilMark) {
  auto fb = make_buffer(4, 10);
  fb.check_and_ref(7);
  const SlotId slot = fb.allocate_slot(7);
  std::atomic<bool> resolved{false};
  std::thread waiter([&] {
    EXPECT_EQ(fb.wait_valid(7), slot);
    resolved = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(resolved.load());
  fb.mark_valid(7);
  waiter.join();
  EXPECT_TRUE(resolved.load());
}

TEST(FeatureBuffer, StandbyReuseRetiredNode) {
  // Fig. 6 step 1: a valid node with zero refcount is pulled back from the
  // standby list and its slot reused for the SAME node.
  auto fb = make_buffer(2, 10);
  fb.check_and_ref(1);
  const SlotId slot = fb.allocate_slot(1);
  fb.mark_valid(1);
  fb.release_one(1);
  ASSERT_EQ(fb.standby_size(), 2u);

  const auto r = fb.check_and_ref(1);
  EXPECT_EQ(r.status, FeatureBuffer::CheckStatus::kReady);
  EXPECT_EQ(r.slot, slot);
  EXPECT_EQ(fb.standby_size(), 1u);  // pulled out of standby
}

TEST(FeatureBuffer, LruSlotReuseInvalidatesPreviousOwner) {
  // Fig. 6 step 4: allocating for a new node takes the LRU standby slot and
  // lazily invalidates its previous occupant.
  auto fb = make_buffer(1, 10);
  fb.check_and_ref(1);
  const SlotId slot = fb.allocate_slot(1);
  fb.mark_valid(1);
  fb.release_one(1);  // slot standby, node 1 still valid

  fb.check_and_ref(2);
  const SlotId slot2 = fb.allocate_slot(2);
  EXPECT_EQ(slot2, slot);
  EXPECT_EQ(fb.reverse(slot), 2u);
  const auto e1 = fb.entry(1);
  EXPECT_FALSE(e1.valid);
  EXPECT_EQ(e1.slot, kNoSlot);  // "not in the feature buffer" state
}

TEST(FeatureBuffer, StandbyIsLruOrdered) {
  auto fb = make_buffer(3, 10);
  // Fill all three slots with nodes 0,1,2, then release in order 1,0,2.
  for (NodeId v = 0; v < 3; ++v) {
    fb.check_and_ref(v);
    fb.allocate_slot(v);
    fb.mark_valid(v);
  }
  const SlotId s0 = fb.entry(0).slot;
  const SlotId s1 = fb.entry(1).slot;
  const SlotId s2 = fb.entry(2).slot;
  fb.release_one(1);
  fb.release_one(0);
  fb.release_one(2);
  // New allocations reuse slots in release (LRU) order: s1, s0, s2.
  fb.check_and_ref(5);
  EXPECT_EQ(fb.allocate_slot(5), s1);
  fb.check_and_ref(6);
  EXPECT_EQ(fb.allocate_slot(6), s0);
  fb.check_and_ref(7);
  EXPECT_EQ(fb.allocate_slot(7), s2);
}

TEST(FeatureBuffer, AllocateBlocksUntilRelease) {
  auto fb = make_buffer(1, 10);
  fb.check_and_ref(1);
  fb.allocate_slot(1);
  fb.mark_valid(1);

  fb.check_and_ref(2);
  std::atomic<bool> allocated{false};
  std::thread blocked([&] {
    fb.allocate_slot(2);  // must wait: no standby slot
    allocated = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(allocated.load());
  fb.release_one(1);
  blocked.join();
  EXPECT_TRUE(allocated.load());
  EXPECT_GE(fb.stats().slot_waits, 1u);
}

TEST(FeatureBuffer, SlotDataRoundTrip) {
  auto fb = make_buffer(4, 10, 8);
  fb.check_and_ref(3);
  const SlotId slot = fb.allocate_slot(3);
  float* data = fb.slot_data(slot);
  for (int i = 0; i < 8; ++i) data[i] = static_cast<float>(i);
  fb.mark_valid(3);
  const float* read = fb.slot_data(fb.entry(3).slot);
  for (int i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(read[i], i);
}

TEST(FeatureBuffer, StatsCategorizeOutcomes) {
  auto fb = make_buffer(4, 10);
  fb.check_and_ref(1);          // load
  fb.check_and_ref(1);          // wait hit (in flight)
  fb.allocate_slot(1);
  fb.mark_valid(1);
  fb.check_and_ref(1);          // reuse hit
  const auto stats = fb.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.wait_hits, 1u);
  EXPECT_EQ(stats.reuse_hits, 1u);
}

// ---- Serve take-over: a serve lookup claims a load that a training
// extractor triaged but has not started (no slot yet).

// A buffer counting into its own registry, whose fb.serve.takeovers
// counter is the one store of take-overs.
struct TakeOverBuffer {
  explicit TakeOverBuffer(std::uint64_t slots)
      : fb(FeatureBufferConfig{slots, 4}, 10, &telemetry) {}
  std::uint64_t takeovers() {
    return telemetry.metrics()->counter("fb.serve.takeovers").value();
  }
  Telemetry telemetry;
  FeatureBuffer fb;
};

TEST(FeatureBufferTakeOver, ServeClaimsASlotlessTrainingLoad) {
  TakeOverBuffer b(4);
  FeatureBuffer& fb = b.fb;
  ASSERT_EQ(fb.check_and_ref(5, FbClient::kTrain).status,
            FeatureBuffer::CheckStatus::kMustLoad);
  EXPECT_EQ(fb.entry(5).loader, FbClient::kTrain);
  const auto r = fb.check_and_ref(5, FbClient::kServe);
  EXPECT_EQ(r.status, FeatureBuffer::CheckStatus::kMustLoad);
  EXPECT_EQ(r.slot, kNoSlot);
  EXPECT_EQ(fb.entry(5).loader, FbClient::kServe);
  EXPECT_EQ(fb.entry(5).ref_count, 2u);
  // A take-over is a serve load, not a serve wait hit, and counts once.
  const FeatureBufferStats serve = fb.stats(FbClient::kServe);
  EXPECT_EQ(serve.loads, 1u);
  EXPECT_EQ(serve.wait_hits, 0u);
  EXPECT_EQ(b.takeovers(), 1u);

  // Serving loads it; training's reference resolves it like a wait-list
  // entry and the slot returns to standby after both releases.
  const SlotId slot = fb.allocate_slot(5, FbClient::kServe);
  ASSERT_NE(slot, kNoSlot);
  fb.mark_valid(5);
  EXPECT_EQ(fb.wait_ready(5, std::chrono::milliseconds(0)), slot);
  fb.release_one(5);
  fb.release_one(5);
  EXPECT_EQ(fb.entry(5).ref_count, 0u);
  EXPECT_EQ(fb.standby_size(), 4u);
}

TEST(FeatureBufferTakeOver, NotOnceTheTrainingLoaderHoldsASlot) {
  TakeOverBuffer b(4);
  FeatureBuffer& fb = b.fb;
  fb.check_and_ref(1, FbClient::kTrain);
  const SlotId slot = fb.allocate_slot(1, FbClient::kTrain);  // read started
  fb.check_and_ref(2, FbClient::kTrain);                      // not started
  const NodeId nodes[] = {1, 2};
  FeatureBuffer::CheckResult res[2];
  fb.check_and_ref_batch(nodes, 2, res, FbClient::kServe);
  EXPECT_EQ(res[0].status, FeatureBuffer::CheckStatus::kInFlight);
  EXPECT_EQ(res[0].slot, slot);
  EXPECT_EQ(fb.entry(1).loader, FbClient::kTrain);
  EXPECT_EQ(res[1].status, FeatureBuffer::CheckStatus::kMustLoad);
  EXPECT_EQ(b.takeovers(), 1u);
}

TEST(FeatureBufferTakeOver, NotFromServeNorTrainingNorAFailedLoad) {
  TakeOverBuffer b(4);
  FeatureBuffer& fb = b.fb;
  fb.check_and_ref(3, FbClient::kServe);  // another serve worker's load
  fb.check_and_ref(4, FbClient::kTrain);
  fb.mark_failed(4);                      // failed before its slot
  fb.check_and_ref(5, FbClient::kTrain);  // unstarted training load
  // A second training lookup never takes over.
  EXPECT_EQ(fb.check_and_ref(5, FbClient::kTrain).status,
            FeatureBuffer::CheckStatus::kInFlight);
  const NodeId nodes[] = {3, 4, 5};
  FeatureBuffer::CheckResult res[3];
  fb.check_and_ref_batch(nodes, 3, res, FbClient::kServe);
  EXPECT_EQ(res[0].status, FeatureBuffer::CheckStatus::kInFlight);
  EXPECT_EQ(res[1].status, FeatureBuffer::CheckStatus::kInFlight);
  EXPECT_EQ(res[2].status, FeatureBuffer::CheckStatus::kMustLoad);
  EXPECT_EQ(fb.entry(3).loader, FbClient::kServe);
  EXPECT_EQ(fb.entry(4).loader, FbClient::kTrain);
  EXPECT_EQ(b.takeovers(), 1u);
  // The failed node still reports its failure to the serve waiter.
  EXPECT_EQ(fb.wait_ready(4, std::chrono::milliseconds(0)), kNoSlot);
}

TEST(FeatureBufferTakeOver, TrainingAllocateSlotsHandsTakenNodeBack) {
  auto fb = make_buffer(2, 10);
  // An earlier training batch holds node 9 in one slot.
  fb.check_and_ref(9, FbClient::kTrain);
  const SlotId slot9 = fb.allocate_slot(9, FbClient::kTrain);
  fb.mark_valid(9);
  const NodeId nodes[] = {1, 3, 2};
  FeatureBuffer::CheckResult res[3];
  fb.check_and_ref_batch(nodes, 3, res, FbClient::kTrain);
  // Serving takes 1 and 3 over and holds the other slot for 3.
  fb.check_and_ref(1, FbClient::kServe);
  fb.check_and_ref(3, FbClient::kServe);
  const SlotId slot3 = fb.allocate_slot(3, FbClient::kServe);
  ASSERT_NE(slot3, kNoSlot);
  ASSERT_EQ(fb.standby_size(), 0u);

  // Training's batched allocation hands both taken nodes back without a
  // slot and without waiting; only node 2 waits for a standby slot.
  SlotId slots[3] = {0, 0, 0};
  std::thread trainer(
      [&] { fb.allocate_slots(nodes, 3, slots, FbClient::kTrain); });
  const TimePoint deadline = Clock::now() + std::chrono::seconds(10);
  while (fb.stats().slot_waits == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fb.stats().slot_waits, 1u);
  fb.release_one(9);  // the earlier batch retires its slot
  trainer.join();
  EXPECT_EQ(slots[0], kNoSlot);
  EXPECT_EQ(slots[1], kNoSlot);
  EXPECT_EQ(slots[2], slot9);
  fb.mark_valid(2);

  // Serving loads 3, and its load of 1 fails for good. Training's waits
  // see both outcomes.
  fb.mark_valid(3);
  fb.mark_failed(1);
  EXPECT_EQ(fb.wait_ready(3, std::chrono::milliseconds(0)), slot3);
  EXPECT_EQ(fb.wait_ready(1, std::chrono::milliseconds(0)), kNoSlot);
  const std::vector<NodeId> serve_nodes = {1, 3};
  fb.release(serve_nodes);
  EXPECT_TRUE(fb.entry(1).failed);  // training still holds a reference
  fb.release(std::vector<NodeId>(std::begin(nodes), std::end(nodes)));
  // The failed entry resets at its last release; nothing leaks.
  const auto e = fb.entry(1);
  EXPECT_EQ(e.ref_count, 0u);
  EXPECT_FALSE(e.failed);
  EXPECT_EQ(e.slot, kNoSlot);
  EXPECT_EQ(fb.standby_size(), 2u);
}

TEST(FeatureBufferTakeOver, TrainingWaitingForASlotYieldsTheTakenNode) {
  TakeOverBuffer b(2);
  FeatureBuffer& fb = b.fb;
  // An earlier training batch holds both slots.
  const std::vector<NodeId> earlier = {8, 9};
  for (const NodeId v : earlier) {
    fb.check_and_ref(v, FbClient::kTrain);
    fb.allocate_slot(v, FbClient::kTrain);
    fb.mark_valid(v);
  }
  const auto await_slot_waits = [&](std::uint64_t n) {
    const TimePoint deadline = Clock::now() + std::chrono::seconds(10);
    while (fb.stats().slot_waits < n && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return fb.stats().slot_waits;
  };

  // Training triaged node 1 and blocks allocating its slot.
  const NodeId node = 1;
  fb.check_and_ref(node, FbClient::kTrain);
  SlotId train_slot = 0;
  std::thread trainer(
      [&] { fb.allocate_slots(&node, 1, &train_slot, FbClient::kTrain); });
  EXPECT_EQ(await_slot_waits(1), 1u);
  // Serving takes node 1 over while training waits, then blocks allocating
  // it as well.
  EXPECT_EQ(fb.check_and_ref(node, FbClient::kServe).status,
            FeatureBuffer::CheckStatus::kMustLoad);
  EXPECT_EQ(b.takeovers(), 1u);
  SlotId serve_slot = kNoSlot;
  std::thread server(
      [&] { serve_slot = fb.allocate_slot(node, FbClient::kServe); });
  EXPECT_EQ(await_slot_waits(2), 2u);
  // Both slots come back at once: only serving may take one for node 1.
  fb.release(earlier);
  trainer.join();
  server.join();
  EXPECT_EQ(train_slot, kNoSlot);
  ASSERT_NE(serve_slot, kNoSlot);
  EXPECT_EQ(fb.entry(node).slot, serve_slot);
  EXPECT_EQ(fb.reverse(serve_slot), node);
  // Node 1 holds one slot, the other is on standby: nothing leaked.
  EXPECT_EQ(fb.standby_size() + 1, fb.num_slots());

  fb.mark_valid(node);
  EXPECT_EQ(fb.wait_ready(node, std::chrono::milliseconds(0)), serve_slot);
  fb.release_one(node);
  fb.release_one(node);
  EXPECT_EQ(fb.entry(node).ref_count, 0u);
  EXPECT_EQ(fb.standby_size(), fb.num_slots());
}

// ---- Concurrent stress: Ne extractor threads with the minimum Ne x Mb
// reserve must make progress (paper's deadlock-freedom claim) and deliver
// the right bytes.
struct StressParams {
  unsigned extractors;
  unsigned batch_nodes;   // Mb
  unsigned num_nodes;
  unsigned batches_per_thread;
};

struct FeatureBufferStress : ::testing::TestWithParam<StressParams> {};

TEST_P(FeatureBufferStress, MinimumReserveNeverDeadlocks) {
  const auto p = GetParam();
  const std::uint64_t slots = p.extractors * p.batch_nodes;  // exact minimum
  FeatureBufferConfig cfg;
  cfg.num_slots = slots;
  cfg.row_floats = 2;
  FeatureBuffer fb(cfg, p.num_nodes);

  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < p.extractors; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(splitmix64(t * 1000 + 17));
      for (unsigned b = 0; b < p.batches_per_thread; ++b) {
        // Random batch of distinct nodes.
        std::vector<NodeId> nodes;
        while (nodes.size() < p.batch_nodes) {
          const NodeId v =
              static_cast<NodeId>(rng.next_below(p.num_nodes));
          if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) {
            nodes.push_back(v);
          }
        }
        std::vector<NodeId> to_load;
        std::vector<NodeId> to_wait;
        for (NodeId v : nodes) {
          const auto r = fb.check_and_ref(v);
          switch (r.status) {
            case FeatureBuffer::CheckStatus::kMustLoad:
              to_load.push_back(v);
              break;
            case FeatureBuffer::CheckStatus::kInFlight:
              to_wait.push_back(v);
              break;
            case FeatureBuffer::CheckStatus::kReady: {
              const float* d = fb.slot_data(r.slot);
              if (d[0] != static_cast<float>(v)) ++mismatches;
              break;
            }
          }
        }
        for (NodeId v : to_load) {
          const SlotId slot = fb.allocate_slot(v);
          float* d = fb.slot_data(slot);
          d[0] = static_cast<float>(v);  // "extract" the data
          d[1] = -static_cast<float>(v);
          fb.mark_valid(v);
        }
        for (NodeId v : to_wait) {
          const SlotId slot = fb.wait_valid(v);
          const float* d = fb.slot_data(slot);
          if (d[0] != static_cast<float>(v)) ++mismatches;
        }
        // Simulate train + release.
        fb.release(nodes);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // All references dropped: every slot is back on standby.
  EXPECT_EQ(fb.standby_size(), slots);
}

INSTANTIATE_TEST_SUITE_P(
    ReserveSweep, FeatureBufferStress,
    ::testing::Values(StressParams{2, 8, 64, 200},
                      StressParams{4, 16, 64, 150},
                      StressParams{4, 16, 1000, 150},
                      StressParams{8, 4, 32, 200},
                      StressParams{1, 32, 4096, 100}));

}  // namespace
}  // namespace gnndrive
