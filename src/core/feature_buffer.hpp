// GNNDrive's feature buffer manager (Sect. 4.2, Fig. 6, Algorithm 1).
//
// Four components, exactly as the paper describes:
//  * mapping table  — per graph node: {slot index, reference count, valid
//    bit, loader, want count}. States: (slot=-1, valid=0, ref=0) not
//    buffered; (slot=-1, valid=0, ref>0) claimed by its loader, read not
//    started;
//    (slot>=0, valid=0) being extracted by its loader; (slot>=0, valid=1)
//    ready. (slot=-1, valid=1) is unreachable.
//  * buffer         — the slot storage itself (device memory for GPU
//    training, host memory for the CPU variant).
//  * reverse map    — slot -> node currently occupying it (-1 when empty).
//  * standby list   — LRU lists of slots with zero reference count: free
//    slots plus retired-but-reusable ones. Reusing a slot for a *new* node
//    lazily invalidates the previous occupant's mapping entry.
//
// The two-pass protocol mirrors Algorithm 1: extractors first
// check_and_ref() every sampled node (reuse / wait-list / to-load triage,
// reference counts bumped), then allocate_slot() + asynchronous load +
// mark_loaded() per completed read for the to-load set, and finally
// wait_valid() on wait-listed nodes. The releaser calls release() after
// training.
//
// Serve take-over. Each in-flight node records its loader (the FbClient
// whose lookup claimed it). A serve lookup that finds a node claimed by a
// training extractor which has no slot for it yet — its read has not
// started — claims the load itself (kMustLoad, counted in
// fb.serve.takeovers) instead of waiting behind training's queued reads.
// The training extractor's allocate_slots() then hands the node back
// without a slot, and it waits for the node like a wait-list entry. A
// node that already holds a slot, was claimed by another serve lookup, or
// failed is waited on as before.
//
// Look-ahead. Sampled batches waiting in the extract queue announce their
// nodes with want(nodes, +1) and drop the hint once extracted (or disposed)
// with want(nodes, -1); the count lives in each mapping entry and holds no
// reference. The standby list has two tiers: slots whose node no queued
// batch wants, and slots whose node one does. Allocation takes the LRU slot
// of the first tier and falls back to the second only when the first is
// empty, so it blocks exactly where it did with one list. A training read
// that completes may also *ride* rows it carried in its gap bytes:
// claim_rides() takes a wanted, unbuffered, unclaimed node with a slot from
// the unwanted tier only (never blocking), and mark_loaded() marks it valid
// and drops that reference once its bytes are in the slot (fb.prefetches).
//
// Hot partition (src/cache). A hotness-aware policy may pin the top-K nodes
// by estimated access frequency into a dedicated slot region via pin_hot():
// pinned slots never enter the standby list, carry no reference counts, and
// once seal_hot() publishes them they can be resolved lock-free through
// hot_slot(). The cold remainder keeps the LRU standby discipline below.
//
// Thread-safe; allocate_slot() blocks when both standby tiers are empty
// until a release arrives. Deadlock freedom requires cold_slots >= Ne x Mb
// (number of extractors x max nodes per mini-batch, counting only the
// unpinned region) — enforced by the pipeline and stress-tested.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "util/common.hpp"
#include "util/lru.hpp"

namespace gnndrive {

class Telemetry;

/// Which workload a feature-buffer lookup is attributed to. Training and
/// serving share one buffer; per-client counters let a cache win be traced
/// to the workload that benefits (docs/observability.md, fb.train.* /
/// fb.serve.*).
enum class FbClient : std::uint8_t { kTrain = 0, kServe = 1 };
inline constexpr std::size_t kNumFbClients = 2;

struct FeatureBufferConfig {
  std::uint64_t num_slots = 0;
  std::uint32_t row_floats = 0;  ///< floats per slot (feature dimension)
};

struct FeatureBufferStats {
  std::uint64_t hot_hits = 0;      ///< node resolved from the pinned region
  std::uint64_t reuse_hits = 0;    ///< node found valid in the buffer
  std::uint64_t wait_hits = 0;     ///< node being loaded by another thread
  std::uint64_t loads = 0;         ///< nodes that required an SSD load
  std::uint64_t slot_waits = 0;    ///< times allocate_slot had to block
  std::uint64_t failed_loads = 0;  ///< nodes marked failed by an extractor
  /// Mutex acquisitions taken by the batched entry points
  /// (check_and_ref_batch / allocate_slots / release / want /
  /// claim_rides; not mark_loaded's completions): together with
  /// `lookups()` this exposes the per-node-lock traffic the batched APIs
  /// eliminated.
  std::uint64_t batch_lock_acquisitions = 0;

  /// Total triages observed (lock-free hot resolutions included).
  std::uint64_t lookups() const {
    return hot_hits + reuse_hits + wait_hits + loads;
  }
  /// (hot + reuse + wait) / lookups, guarded against the zero-lookup case
  /// (a buffer that never served a batch reports 0, not NaN).
  double hit_rate() const {
    const std::uint64_t total = lookups();
    return total > 0 ? static_cast<double>(hot_hits + reuse_hits + wait_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
  /// Hit rate of the standby (cold) region alone — what the LRU list itself
  /// delivers once hot hits are taken out. The A/B bench compares this
  /// across policies.
  double standby_hit_rate() const {
    const std::uint64_t total = reuse_hits + wait_hits + loads;
    return total > 0 ? static_cast<double>(reuse_hits + wait_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

class FeatureBuffer : NonCopyable {
 public:
  /// Every count lives in the "fb.*" instruments of `telemetry`'s metrics
  /// registry — or, without telemetry, of a registry the buffer owns — and
  /// stats() reads them back. Buffers sharing one Telemetry share those
  /// counts (in the library, only MultiGpuGnnDrive replicas do). Throws
  /// std::invalid_argument when the config is unusable (zero slots, more
  /// slots than the LRU index space, zero-width rows) — construction is the
  /// validation point, not the first hot-path GD_CHECK.
  FeatureBuffer(const FeatureBufferConfig& config, NodeId num_nodes,
                Telemetry* telemetry = nullptr);

  enum class CheckStatus {
    kReady,     ///< valid in the buffer; slot returned
    kInFlight,  ///< another thread is extracting it; add to wait list
    kMustLoad,  ///< caller must allocate a slot and load it
  };
  struct CheckResult {
    CheckStatus status;
    SlotId slot;  ///< valid for kReady; may be kNoSlot for kInFlight
  };

  /// Pass 1 of Algorithm 1 for one node: triages and increments the node's
  /// reference count (the caller now holds a reference regardless of status).
  /// Pinned hot nodes short-circuit to kReady without a reference bump
  /// (their slots can never be reclaimed, so no reference is needed; a
  /// symmetric release() on them is a no-op).
  CheckResult check_and_ref(NodeId node, FbClient client = FbClient::kTrain);

  /// Pass 1 for a whole batch under a single mutex acquisition. Triage
  /// results are written to `out[0..n)` and are identical to n sequential
  /// check_and_ref calls in the same order (duplicates within the batch
  /// triage like repeated calls would: first occurrence decides, later
  /// duplicates see kInFlight/kReady).
  void check_and_ref_batch(const NodeId* nodes, std::size_t n,
                           CheckResult* out,
                           FbClient client = FbClient::kTrain);

  /// Pass 2: assigns the LRU standby slot to `node` (which `client`'s
  /// lookup triaged kMustLoad), lazily invalidating the slot's previous
  /// occupant. Blocks while the standby list is empty. Returns kNoSlot
  /// when a serve lookup took the load over — at once, or as soon as it
  /// does while this waits: the caller still holds its reference and
  /// resolves the node like a wait-list entry (wait_ready).
  SlotId allocate_slot(NodeId node, FbClient client = FbClient::kTrain);

  /// Pass 2 for a group of kMustLoad nodes under (at minimum) a single
  /// mutex acquisition; writes each node's slot (kNoSlot when taken over)
  /// to `out[0..n)`. Blocking semantics match n sequential allocate_slot
  /// calls — the wait happens per node as the standby list drains, so the
  /// deadlock-freedom argument (num_slots >= Ne x Mb) is unchanged.
  void allocate_slots(const NodeId* nodes, std::size_t n, SlotId* out,
                      FbClient client = FbClient::kTrain);

  /// Marks the node's data ready (after load + transfer) and wakes waiters.
  void mark_valid(NodeId node);

  /// One completed read's rows are in their slots: marks `loaded[0..n)`
  /// valid (their loaders keep their references) and the claimed rides
  /// `rides[0..n_rides)` valid, dropping each ride's reference, under one
  /// lock acquisition with one wake-up of the waiters.
  void mark_loaded(const NodeId* loaded, std::size_t n_loaded,
                   const NodeId* rides, std::size_t n_rides);

  /// Marks a node whose load permanently failed; wakes waiters, which see
  /// kNoSlot from wait_ready(). The node's references stay owed — when the
  /// last one is released the entry fully resets (slot back to standby,
  /// failed flag cleared) so a later batch can retry the load from scratch.
  /// Valid both for nodes with an allocated slot and for kMustLoad nodes
  /// whose extractor aborted before allocate_slot().
  void mark_failed(NodeId node);

  /// Blocks until `node` is valid; returns its slot (wait-list resolution).
  SlotId wait_valid(NodeId node);

  /// Fault-tolerant wait-list resolution: returns the slot once valid,
  /// kNoSlot if the loading extractor marked the node failed, and nullopt if
  /// neither happened within `timeout` (loader died — the caller should fail
  /// its batch rather than deadlock).
  std::optional<SlotId> wait_ready(NodeId node, Duration timeout);

  /// Releaser path: drops one reference per node; slots reaching zero are
  /// appended at the MRU end of the standby list. Mapping entries stay valid
  /// for potential inter-batch reuse (lazy invalidation).
  void release(const std::vector<NodeId>& nodes);
  void release_one(NodeId node);

  // -- Look-ahead (hints and rides) ------------------------------------------
  /// Adds `delta` (+1 or -1) to the want count of every unpinned node in
  /// `nodes` under one lock acquisition, moving zero-reference slots between
  /// the standby tiers as a count leaves or reaches zero. Dropping a hint
  /// that was never given fails a GD_CHECK.
  void want(const std::vector<NodeId>& nodes, int delta);

  /// Lock-free ride pre-check: true when `node` was wanted, unbuffered and
  /// unclaimed at its last state change. Only a hint for the caller's scan;
  /// claim_rides() decides under the lock.
  bool ride_candidate(NodeId node) const {
    return rideable_[node].load(std::memory_order_relaxed);
  }

  /// Under one lock acquisition, claims each of `nodes` that is still
  /// wanted, unbuffered and unclaimed: one reference, loader kTrain, and the
  /// LRU slot of the unwanted standby tier (evicting its occupant). Never
  /// blocks and never takes a wanted slot — once the unwanted tier is empty
  /// the rest get kNoSlot. Writes each node's slot (or kNoSlot) to
  /// `out[0..n)` and returns the number claimed; each claimed node must be
  /// finished as a ride by mark_loaded() once its bytes are in its slot.
  std::size_t claim_rides(const NodeId* nodes, std::size_t n, SlotId* out);

  float* slot_data(SlotId slot) {
    return storage_.data() + static_cast<std::size_t>(slot) * row_floats_;
  }
  const float* slot_data(SlotId slot) const {
    return storage_.data() + static_cast<std::size_t>(slot) * row_floats_;
  }

  std::uint64_t num_slots() const { return num_slots_; }
  std::uint32_t row_floats() const { return row_floats_; }
  std::uint64_t storage_bytes() const { return storage_.size() * 4; }

  // -- Hot partition (src/cache hotness policy) -----------------------------
  /// Claims one slot per node and pins it: the slot leaves the standby list
  /// permanently and the node maps to it for the buffer's lifetime. Must be
  /// called on an idle buffer (every slot still on standby, no prior pin);
  /// throws std::invalid_argument on an oversized or duplicate-bearing hot
  /// set and std::logic_error when the buffer is not idle. Returns the slot
  /// of hot_nodes[i] at out[i]. The caller then loads each row and
  /// mark_valid()s it; seal_hot() publishes the partition.
  std::vector<SlotId> pin_hot(const std::vector<NodeId>& hot_nodes);
  /// Publishes the pinned partition for lock-free hot_slot() resolution.
  /// Every pinned node must have been mark_valid()ed first.
  void seal_hot();
  bool hot_sealed() const {
    return hot_sealed_.load(std::memory_order_acquire);
  }
  /// Lock-free: the node's pinned slot, or kNoSlot when the node is not hot
  /// (or the partition is not sealed yet). Safe from any thread after
  /// seal_hot() — pinned mappings never change.
  SlotId hot_slot(NodeId node) const {
    if (!hot_sealed_.load(std::memory_order_acquire)) return kNoSlot;
    return hot_map_[node];
  }
  /// Accounting for hot resolutions done outside the mutex (the extractor
  /// fast path batches them per mini-batch).
  void record_hot_hits(std::uint64_t n, FbClient client = FbClient::kTrain);
  std::uint64_t hot_slots() const { return hot_count_; }
  std::uint64_t cold_slots() const { return num_slots_ - hot_count_; }

  // -- Introspection (tests, Fig. 6 walk-through) ---------------------------
  struct Entry {
    SlotId slot = kNoSlot;
    std::uint32_t ref_count = 0;
    bool valid = false;
    bool failed = false;  ///< load permanently failed; resets at refcount 0
    bool pinned = false;  ///< hot-partition member; exempt from eviction
    /// Who claimed the in-flight load (meaningful while ref_count > 0 and
    /// !valid); a serve take-over moves it from kTrain to kServe.
    FbClient loader = FbClient::kTrain;
    /// Queued batches holding a look-ahead hint on the node (want()). Not a
    /// reference: it survives eviction and the failed-entry reset.
    std::uint32_t want = 0;
  };
  Entry entry(NodeId node) const;
  NodeId reverse(SlotId slot) const;  ///< kInvalidNode when slot is empty
  std::size_t standby_size() const;  ///< both tiers
  /// Merged view across both clients (lock-free reads of the fb.*
  /// counters).
  FeatureBufferStats stats() const;
  /// Triage counters attributed to one client (hot/reuse/wait/loads only;
  /// the shared fields — slot_waits, failed_loads, lock counts — are
  /// buffer-global and reported by the merged stats()).
  FeatureBufferStats stats(FbClient client) const;

  static constexpr NodeId kInvalidNode = 0xffffffffu;

 private:
  /// Drops one reference; returns true when a slot joined the standby list.
  /// Called with mu_ held.
  bool retire_locked(NodeId node);
  /// check_and_ref body; called with mu_ held.
  CheckResult check_and_ref_locked(NodeId node, FbClient client);
  /// allocate_slot body; may release `lock` to wait for a standby slot.
  SlotId allocate_slot_locked(std::unique_lock<std::mutex>& lock, NodeId node,
                              FbClient client);
  /// The standby tier for a zero-reference slot holding `node`
  /// (kInvalidNode: a free slot).
  IndexedLruList& tier_for(NodeId node) {
    return node != kInvalidNode && map_[node].want > 0 ? standby_wanted_
                                                       : standby_;
  }
  std::size_t standby_size_locked() const {
    return standby_.size() + standby_wanted_.size();
  }
  /// Pops the LRU slot of the unwanted tier, or of the wanted tier when
  /// `wanted_ok` and the first is empty, and lazily invalidates its previous
  /// occupant; kNil when nothing qualifies.
  std::uint32_t take_standby_locked(bool wanted_ok);
  /// Refreshes rideable_[node] from its entry.
  void sync_rideable_locked(NodeId node);

  const std::uint64_t num_slots_;
  const std::uint32_t row_floats_;

  mutable std::mutex mu_;
  std::condition_variable slot_available_;
  std::condition_variable became_valid_;

  std::vector<Entry> map_;            ///< mapping table, per node
  std::vector<NodeId> reverse_;       ///< per slot
  IndexedLruList standby_;         ///< zero-reference slots nobody wants
  IndexedLruList standby_wanted_;  ///< ...whose node a queued batch wants
  std::vector<float> storage_;
  /// Per node: want > 0, ref_count == 0, !valid, !pinned. Written under mu_
  /// at every change of those fields, read without it by ride_candidate().
  std::unique_ptr<std::atomic<bool>[]> rideable_;

  // Hot partition. hot_map_ is written only before the release-store of
  // hot_sealed_; readers pair it with an acquire-load in hot_slot(), so the
  // mapping is immutable once visible and needs no lock.
  std::vector<SlotId> hot_map_;  ///< node -> pinned slot (kNoSlot when cold)
  std::uint64_t hot_count_ = 0;
  std::atomic<bool> hot_sealed_{false};

  // Instruments (docs/observability.md), resolved once from the
  // telemetry's registry or owned_metrics_: the only store of every count.
  void publish_standby_locked();
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  /// fb.{train,serve}.{hot_hits,reuse_hits,wait_hits,loads}
  struct ClientCounters {
    Counter* hot_hits;
    Counter* reuse_hits;
    Counter* wait_hits;
    Counter* loads;
  } by_client_[kNumFbClients];
  Counter* slot_waits_;       ///< fb.slot_waits
  Counter* failed_loads_;     ///< fb.failed_loads
  Counter* takeovers_;        ///< fb.serve.takeovers
  Counter* prefetches_;       ///< fb.prefetches (rides claimed)
  Counter* evictions_;        ///< fb.evictions (slot re-assigned)
  Counter* batch_locks_;      ///< fb.batch_lock_acquisitions
  Gauge* standby_gauge_;      ///< fb.standby (both tiers)
  Gauge* hot_slots_gauge_;    ///< fb.hot.slots (pinned region size)
  Gauge* cold_slots_gauge_;   ///< fb.cold.slots (evictable region)
};

}  // namespace gnndrive
