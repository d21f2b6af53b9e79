// Model-checking test: random single-threaded operation sequences on the
// feature buffer, from a training and a serving client, compared against a
// straightforward reference implementation of the Sect. 4.2 specification
// plus the serve take-over rule (core/feature_buffer.hpp).
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
  };

  // Returns what check_and_ref should report.
  FeatureBuffer::CheckStatus check_and_ref(NodeId v, FbClient client) {
    Entry& e = map_[v];
    FeatureBuffer::CheckStatus st;
    if (e.valid) {
      if (e.ref == 0) {
        standby_.erase(std::find(standby_.begin(), standby_.end(),
                                 static_cast<std::uint64_t>(e.slot)));
      }
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
    if (standby_.empty()) return std::nullopt;
    const std::uint64_t slot = standby_.front();
    standby_.pop_front();
    for (auto& e : map_) {
      if (e.slot == static_cast<std::int64_t>(slot)) {
        e.slot = -1;
        e.valid = false;
      }
    }
    map_[v].slot = static_cast<std::int64_t>(slot);
    return map_[v].slot;
  }

  void mark_valid(NodeId v) { map_[v].valid = true; }
  void mark_failed(NodeId v) { map_[v].failed = true; }

  void release(NodeId v) {
    Entry& e = map_[v];
    if (--e.ref != 0) return;
    if (e.slot >= 0) standby_.push_back(static_cast<std::uint64_t>(e.slot));
    if (e.failed) e = Entry{};  // a failed load resets at its last release
  }

  const Entry& entry(NodeId v) const { return map_[v]; }
  std::size_t standby_size() const { return standby_.size(); }
  std::uint64_t takeovers() const { return takeovers_; }

 private:
  std::vector<Entry> map_;
  std::deque<std::uint64_t> standby_;  // front == LRU
  std::uint64_t takeovers_ = 0;
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
  Rng rng(p.seed);
  const auto take = [&](auto& list) {
    const std::uint64_t idx = rng.next_below(list.size());
    const auto item = list[idx];
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(idx));
    return item;
  };

  for (int step = 0; step < 6000; ++step) {
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
      std::map<NodeId, std::uint32_t> refs;  // references the clients hold
      std::map<NodeId, int> loaders;         // claims the loader still owns
      for (const NodeId v : held) ++refs[v];
      for (const auto* list : {&claimed, &loading}) {
        for (const Claim& c : *list) {
          ++refs[c.node];
          if (fb.entry(c.node).loader == c.client) ++loaders[c.node];
        }
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
  // The interleavings reached the take-over rule.
  EXPECT_GT(ref.takeovers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FeatureBufferModel,
                         ::testing::Values(ModelParams{4, 16, 1},
                                           ModelParams{8, 8, 2},
                                           ModelParams{16, 100, 3},
                                           ModelParams{2, 50, 4},
                                           ModelParams{64, 64, 5}));

}  // namespace
}  // namespace gnndrive
