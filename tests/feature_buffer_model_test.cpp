// Model-checking test: random single-threaded operation sequences on the
// feature buffer, from a training and a serving client, compared against a
// straightforward reference implementation of the Sect. 4.2 specification
// plus the serve take-over rule and the look-ahead hints and rides
// (core/feature_buffer.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>

#include "core/feature_buffer.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

/// Reference model: direct transcription of the paper's rules, no cleverness.
class ReferenceBuffer {
 public:
  ReferenceBuffer(std::uint64_t slots, NodeId nodes)
      : map_(nodes) {
    for (std::uint64_t s = 0; s < slots; ++s) standby_.push_back(s);
  }

  struct Entry {
    std::int64_t slot = -1;
    std::uint32_t ref = 0;
    bool valid = false;
    bool failed = false;
    FbClient loader = FbClient::kTrain;
    std::uint32_t want = 0;
  };

  // Returns what check_and_ref should report.
  FeatureBuffer::CheckStatus check_and_ref(NodeId v, FbClient client) {
    Entry& e = map_[v];
    FeatureBuffer::CheckStatus st;
    if (e.valid) {
      if (e.ref == 0) unlist(e);
      st = FeatureBuffer::CheckStatus::kReady;
    } else if (e.ref == 0 ||
               (client == FbClient::kServe && e.loader == FbClient::kTrain &&
                e.slot < 0 && !e.failed)) {
      // Unbuffered, or a training claim whose read has not started: the
      // serve lookup takes it over.
      if (e.ref > 0) ++takeovers_;
      e.loader = client;
      st = FeatureBuffer::CheckStatus::kMustLoad;
    } else {
      st = FeatureBuffer::CheckStatus::kInFlight;
    }
    ++e.ref;
    return st;
  }

  /// kNoSlot when the claim was taken over; nullopt when the allocation
  /// would block on an empty standby list.
  std::optional<std::int64_t> allocate(NodeId v, FbClient client) {
    if (map_[v].loader != client) return kNoSlot;
    // The unwanted tier first; a wanted slot only when no other is left.
    std::deque<std::uint64_t>& tier = standby_.empty() ? wanted_ : standby_;
    if (tier.empty()) return std::nullopt;
    map_[v].slot = evict_front(tier);
    return map_[v].slot;
  }

  void mark_valid(NodeId v) { map_[v].valid = true; }
  void mark_failed(NodeId v) { map_[v].failed = true; }

  void release(NodeId v) {
    Entry& e = map_[v];
    if (--e.ref != 0) return;
    if (e.failed) {
      // A failed load resets at its last release; its hints stay.
      if (e.slot >= 0) standby_.push_back(static_cast<std::uint64_t>(e.slot));
      e = Entry{.want = e.want};
      return;
    }
    if (e.slot >= 0) tier_of(e).push_back(static_cast<std::uint64_t>(e.slot));
  }

  /// A queued batch's hint on `v` (+1) or its drop (-1).
  void want(NodeId v, int delta) {
    Entry& e = map_[v];
    const bool listed = e.ref == 0 && e.slot >= 0;
    if (listed) unlist(e);
    e.want = static_cast<std::uint32_t>(static_cast<int>(e.want) + delta);
    if (listed) {
      // Only a tier change moves the slot, to the MRU end of its new tier.
      std::deque<std::uint64_t>& tier = tier_of(e);
      const bool same = (delta > 0 && e.want > 1) || (delta < 0 && e.want > 0);
      if (same) {
        tier.insert(tier.begin() + static_cast<std::ptrdiff_t>(unlisted_at_),
                    static_cast<std::uint64_t>(e.slot));
      } else {
        tier.push_back(static_cast<std::uint64_t>(e.slot));
      }
    }
  }

  /// The slot a ride on `v` claims, or kNoSlot.
  std::int64_t claim_ride(NodeId v) {
    Entry& e = map_[v];
    if (e.want == 0 || e.ref > 0 || e.valid || standby_.empty()) {
      return kNoSlot;
    }
    e.slot = evict_front(standby_);
    e.ref = 1;
    e.loader = FbClient::kTrain;
    ++prefetches_;
    return e.slot;
  }
  void finish_ride(NodeId v) {
    map_[v].valid = true;
    release(v);
  }

  const Entry& entry(NodeId v) const { return map_[v]; }
  std::size_t standby_size() const { return standby_.size() + wanted_.size(); }
  std::uint64_t takeovers() const { return takeovers_; }
  std::uint64_t prefetches() const { return prefetches_; }

 private:
  std::deque<std::uint64_t>& tier_of(const Entry& e) {
    return e.want > 0 ? wanted_ : standby_;
  }
  /// Removes a listed entry's slot from its tier, remembering where.
  void unlist(const Entry& e) {
    std::deque<std::uint64_t>& tier = tier_of(e);
    const auto it = std::find(tier.begin(), tier.end(),
                              static_cast<std::uint64_t>(e.slot));
    unlisted_at_ = static_cast<std::size_t>(it - tier.begin());
    tier.erase(it);
  }
  /// Pops the tier's LRU slot and invalidates its occupant.
  std::int64_t evict_front(std::deque<std::uint64_t>& tier) {
    const auto slot = static_cast<std::int64_t>(tier.front());
    tier.pop_front();
    for (auto& e : map_) {
      if (e.slot == slot) {
        e.slot = -1;
        e.valid = false;
      }
    }
    return slot;
  }

  std::vector<Entry> map_;
  std::deque<std::uint64_t> standby_;  // unwanted tier, front == LRU
  std::deque<std::uint64_t> wanted_;   // wanted tier, front == LRU
  std::size_t unlisted_at_ = 0;
  std::uint64_t takeovers_ = 0;
  std::uint64_t prefetches_ = 0;
};

struct ModelParams {
  std::uint64_t slots;
  NodeId nodes;
  std::uint64_t seed;
};

struct FeatureBufferModel : ::testing::TestWithParam<ModelParams> {};

TEST_P(FeatureBufferModel, MatchesReferenceOverRandomOps) {
  const auto p = GetParam();
  FeatureBufferConfig cfg;
  cfg.num_slots = p.slots;
  cfg.row_floats = 1;
  Telemetry telemetry;
  FeatureBuffer fb(cfg, p.nodes, &telemetry);
  const Counter& takeovers =
      telemetry.metrics()->counter("fb.serve.takeovers");
  const Counter& prefetches = telemetry.metrics()->counter("fb.prefetches");
  ReferenceBuffer ref(p.slots, p.nodes);

  // What each client holds, so ops stay well-formed: plain references, and
  // loads it claimed (kMustLoad) that are not yet allocated or allocated
  // but not yet resolved.
  struct Claim {
    NodeId node;
    FbClient client;
  };
  std::vector<NodeId> held;
  std::vector<Claim> claimed;
  std::vector<Claim> loading;
  std::vector<NodeId> hints;  // look-ahead hints given and not yet dropped
  std::vector<NodeId> rides;  // ride claims not yet finished
  Rng rng(p.seed);
  // The look-ahead ops draw from their own stream, so the lookups,
  // allocations and releases keep the sequence that reaches take-overs.
  Rng look(splitmix64(p.seed));
  const auto take = [&](auto& list) {
    const std::uint64_t idx = rng.next_below(list.size());
    const auto item = list[idx];
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(idx));
    return item;
  };

  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t look_dice = look.next_below(15);
    if (look_dice == 12 || (look_dice == 13 && hints.empty())) {
      // A queued batch hints a node.
      const NodeId v = static_cast<NodeId>(look.next_below(p.nodes));
      fb.want({v}, +1);
      ref.want(v, +1);
      hints.push_back(v);
      continue;
    }
    if (look_dice == 13) {
      // An extracted (or disposed) batch drops a hint.
      const NodeId v = hints[look.next_below(hints.size())];
      hints.erase(std::find(hints.begin(), hints.end(), v));
      fb.want({v}, -1);
      ref.want(v, -1);
      continue;
    }
    if (look_dice == 14) {
      // A read carries a node's row in its gap bytes: claim a ride, or
      // finish one.
      if (!rides.empty() && look.next_below(2) == 0) {
        const NodeId v = rides[look.next_below(rides.size())];
        rides.erase(std::find(rides.begin(), rides.end(), v));
        fb.mark_loaded(nullptr, 0, &v, 1);
        ref.finish_ride(v);
        continue;
      }
      const NodeId v = static_cast<NodeId>(look.next_below(p.nodes));
      ASSERT_EQ(fb.ride_candidate(v),
                ref.entry(v).want > 0 && ref.entry(v).ref == 0 &&
                    !ref.entry(v).valid)
          << "step " << step;
      SlotId got = 0;
      fb.claim_rides(&v, 1, &got);
      ASSERT_EQ(static_cast<std::int64_t>(got), ref.claim_ride(v))
          << "step " << step;
      if (got != kNoSlot) rides.push_back(v);
      continue;
    }
    const std::uint64_t dice = rng.next_below(12);
    if (dice < 4) {
      // A lookup from either client.
      const NodeId v = static_cast<NodeId>(rng.next_below(p.nodes));
      const FbClient client =
          rng.next_below(2) == 0 ? FbClient::kTrain : FbClient::kServe;
      const auto got = fb.check_and_ref(v, client);
      const auto want = ref.check_and_ref(v, client);
      ASSERT_EQ(static_cast<int>(got.status), static_cast<int>(want))
          << "step " << step;
      if (got.status == FeatureBuffer::CheckStatus::kMustLoad) {
        claimed.push_back({v, client});
      } else {
        held.push_back(v);
      }
    } else if (dice < 6 && !claimed.empty()) {
      // Allocate a claimed load. Single-threaded, so an allocation that
      // would block on an empty standby list is skipped; a taken-over claim
      // comes back at once without a slot and becomes a plain reference.
      const std::uint64_t idx = rng.next_below(claimed.size());
      const Claim c = claimed[idx];
      const auto want_slot = ref.allocate(c.node, c.client);
      if (!want_slot.has_value()) continue;  // would block: skip
      claimed.erase(claimed.begin() + static_cast<std::ptrdiff_t>(idx));
      const SlotId got_slot = fb.allocate_slot(c.node, c.client);
      ASSERT_EQ(static_cast<std::int64_t>(got_slot), *want_slot)
          << "step " << step;
      if (got_slot == kNoSlot) {
        held.push_back(c.node);
      } else {
        loading.push_back(c);
      }
    } else if (dice < 8 && !loading.empty()) {
      // Finish an allocated load.
      const Claim c = take(loading);
      fb.mark_valid(c.node);
      ref.mark_valid(c.node);
      held.push_back(c.node);
    } else if (dice < 9 && (!loading.empty() || !claimed.empty())) {
      // Fail a load, allocated or not (an extractor that aborted before
      // allocate_slot); a taken-over claim is not its client's to fail.
      const bool allocated = !loading.empty() && rng.next_below(2) == 0;
      const Claim c = allocated || claimed.empty() ? take(loading)
                                                    : take(claimed);
      if (!allocated && ref.entry(c.node).loader != c.client) {
        claimed.push_back(c);
        continue;
      }
      fb.mark_failed(c.node);
      ref.mark_failed(c.node);
      held.push_back(c.node);
    } else if (!held.empty()) {
      // Release a random held reference.
      const NodeId v = take(held);
      fb.release_one(v);
      ref.release(v);
    }
    if (step % 61 == 0) {
      ASSERT_EQ(fb.standby_size(), ref.standby_size()) << "step " << step;
      ASSERT_EQ(takeovers.value(), ref.takeovers());
      ASSERT_EQ(prefetches.value(), ref.prefetches());
      std::map<NodeId, std::uint32_t> refs;  // references the clients hold
      std::map<NodeId, int> loaders;         // claims the loader still owns
      std::map<NodeId, std::uint32_t> wants;  // outstanding hints
      for (const NodeId v : held) ++refs[v];
      for (const NodeId v : hints) ++wants[v];
      for (const auto* list : {&claimed, &loading}) {
        for (const Claim& c : *list) {
          ++refs[c.node];
          if (fb.entry(c.node).loader == c.client) ++loaders[c.node];
        }
      }
      for (const NodeId v : rides) {  // a ride is a training load
        ++refs[v];
        if (fb.entry(v).loader == FbClient::kTrain) ++loaders[v];
      }
      std::uint64_t slots_held = 0;
      for (NodeId v = 0; v < p.nodes; ++v) {
        const auto got = fb.entry(v);
        const auto& want = ref.entry(v);
        ASSERT_EQ(got.slot, want.slot) << "node " << v << " step " << step;
        ASSERT_EQ(got.ref_count, want.ref) << "node " << v;
        ASSERT_EQ(got.valid, want.valid) << "node " << v;
        ASSERT_EQ(got.failed, want.failed) << "node " << v;
        ASSERT_EQ(got.ref_count, refs[v]) << "node " << v << " step " << step;
        ASSERT_EQ(got.want, want.want) << "node " << v;
        ASSERT_EQ(got.want, wants[v]) << "node " << v << " step " << step;
        // Every in-flight load has exactly one loader; no other node has
        // any.
        const bool in_flight = got.ref_count > 0 && !got.valid && !got.failed;
        if (in_flight) {
          ASSERT_EQ(got.loader, want.loader) << "node " << v;
        }
        ASSERT_EQ(loaders[v], in_flight ? 1 : 0)
            << "node " << v << " step " << step;
        if (got.ref_count > 0 && got.slot != kNoSlot) ++slots_held;
      }
      // Standby balance: every slot not held by a referenced node waits on
      // the standby list.
      ASSERT_EQ(fb.standby_size() + slots_held, p.slots) << "step " << step;
    }
  }
  // The interleavings reached the take-over rule and, wherever nodes
  // outnumber slots (so evictions leave wanted nodes unbuffered), rides.
  EXPECT_GT(ref.takeovers(), 0u);
  if (p.nodes > p.slots) {
    EXPECT_GT(ref.prefetches(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FeatureBufferModel,
                         ::testing::Values(ModelParams{4, 16, 1},
                                           ModelParams{8, 8, 2},
                                           ModelParams{16, 100, 3},
                                           ModelParams{2, 50, 4},
                                           ModelParams{64, 64, 5}));

}  // namespace
}  // namespace gnndrive
