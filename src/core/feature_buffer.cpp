#include "core/feature_buffer.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

namespace {
/// Construction-time config validation: a throwing rejection here turns what
/// used to be a late GD_CHECK abort on the first lookup into a recoverable
/// error at the configuration boundary.
void validate(const FeatureBufferConfig& config) {
  if (config.num_slots == 0) {
    throw std::invalid_argument("FeatureBuffer: num_slots must be > 0");
  }
  if (config.num_slots > IndexedLruList::kNil) {
    throw std::invalid_argument(
        "FeatureBuffer: num_slots exceeds the LRU index space (" +
        std::to_string(config.num_slots) + " > " +
        std::to_string(IndexedLruList::kNil) + ")");
  }
  if (config.row_floats == 0) {
    throw std::invalid_argument("FeatureBuffer: row_floats must be > 0");
  }
}
}  // namespace

FeatureBuffer::FeatureBuffer(const FeatureBufferConfig& config,
                             NodeId num_nodes, Telemetry* telemetry)
    : num_slots_((validate(config), config.num_slots)),
      row_floats_(config.row_floats),
      map_(num_nodes),
      reverse_(config.num_slots, kInvalidNode),
      standby_(config.num_slots),
      standby_wanted_(config.num_slots),
      storage_(config.num_slots * config.row_floats, 0.0f),
      rideable_(std::make_unique<std::atomic<bool>[]>(num_nodes)) {
  // All slots start free: populate the standby list in slot order.
  for (std::uint64_t s = 0; s < num_slots_; ++s) {
    standby_.push_mru(static_cast<std::uint32_t>(s));
  }
  MetricsRegistry& reg = registry_or_own(telemetry, owned_metrics_);
  for (const FbClient client : {FbClient::kTrain, FbClient::kServe}) {
    const std::string prefix =
        client == FbClient::kTrain ? "fb.train." : "fb.serve.";
    by_client_[static_cast<std::size_t>(client)] = {
        &reg.counter(prefix + "hot_hits"), &reg.counter(prefix + "reuse_hits"),
        &reg.counter(prefix + "wait_hits"), &reg.counter(prefix + "loads")};
  }
  slot_waits_ = &reg.counter("fb.slot_waits");
  failed_loads_ = &reg.counter("fb.failed_loads");
  takeovers_ = &reg.counter("fb.serve.takeovers");
  prefetches_ = &reg.counter("fb.prefetches");
  evictions_ = &reg.counter("fb.evictions");
  batch_locks_ = &reg.counter("fb.batch_lock_acquisitions");
  standby_gauge_ = &reg.gauge("fb.standby");
  standby_gauge_->set(static_cast<std::int64_t>(standby_.size()));
  hot_slots_gauge_ = &reg.gauge("fb.hot.slots");
  cold_slots_gauge_ = &reg.gauge("fb.cold.slots");
  cold_slots_gauge_->set(static_cast<std::int64_t>(num_slots_));
}

void FeatureBuffer::publish_standby_locked() {
  standby_gauge_->set(static_cast<std::int64_t>(standby_size_locked()));
}

void FeatureBuffer::sync_rideable_locked(NodeId node) {
  const Entry& e = map_[node];
  const bool rideable = e.want > 0 && e.ref_count == 0 && !e.valid && !e.pinned;
  if (rideable_[node].load(std::memory_order_relaxed) != rideable) {
    rideable_[node].store(rideable, std::memory_order_relaxed);
  }
}

std::uint32_t FeatureBuffer::take_standby_locked(bool wanted_ok) {
  IndexedLruList* tier = &standby_;
  if (tier->empty()) {
    if (!wanted_ok || standby_wanted_.empty()) return IndexedLruList::kNil;
    tier = &standby_wanted_;
  }
  const std::uint32_t slot = tier->pop_lru();
  publish_standby_locked();
  const NodeId prev = reverse_[slot];
  if (prev != kInvalidNode) {
    // Lazy invalidation of the slot's previous occupant (Fig. 6, step 4).
    GD_CHECK_MSG(map_[prev].ref_count == 0,
                 "standby slot owner had live references");
    map_[prev].valid = false;
    map_[prev].slot = kNoSlot;
    reverse_[slot] = kInvalidNode;
    evictions_->add();
    sync_rideable_locked(prev);
  }
  return slot;
}

FeatureBuffer::CheckResult FeatureBuffer::check_and_ref(NodeId node,
                                                        FbClient client) {
  std::lock_guard lock(mu_);
  return check_and_ref_locked(node, client);
}

void FeatureBuffer::check_and_ref_batch(const NodeId* nodes, std::size_t n,
                                        CheckResult* out, FbClient client) {
  std::lock_guard lock(mu_);
  batch_locks_->add();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = check_and_ref_locked(nodes[i], client);
  }
}

FeatureBuffer::CheckResult FeatureBuffer::check_and_ref_locked(
    NodeId node, FbClient client) {
  GD_DCHECK_MSG(node < map_.size(), "check_and_ref on out-of-range node");
  const ClientCounters& counts = by_client_[static_cast<std::size_t>(client)];
  Entry& e = map_[node];
  if (e.pinned) {
    // Hot-partition member: its slot can never be reclaimed, so no
    // reference is taken (release() on it is a symmetric no-op). Callers
    // that pre-filter through hot_slot() never reach here; this path keeps
    // single-node users (tests, baselines) correct.
    GD_CHECK_MSG(e.valid, "pinned entry not valid (prefetch incomplete)");
    counts.hot_hits->add();
    return {CheckStatus::kReady, e.slot};
  }
  CheckResult result;
  if (e.valid) {
    GD_CHECK_MSG(e.slot != kNoSlot, "valid entry without slot");
    if (e.ref_count == 0) {
      // Retired but still buffered: pull its slot out of the standby list
      // so it cannot be reused from under us.
      tier_for(node).remove(static_cast<std::uint32_t>(e.slot));
      publish_standby_locked();
    }
    counts.reuse_hits->add();
    result = {CheckStatus::kReady, e.slot};
  } else if (e.ref_count == 0 ||
             (client == FbClient::kServe && e.loader == FbClient::kTrain &&
              e.slot == kNoSlot && !e.failed)) {
    // Not buffered — or claimed by a training extractor whose read has not
    // started (no slot yet): serving takes that load over rather than wait
    // behind training's queued reads. Training's allocate_slots() then
    // hands the node back without a slot and its batch waits for it.
    if (e.ref_count > 0) {
      takeovers_->add();
      // A training allocate_slots() blocked on this node stops waiting.
      slot_available_.notify_all();
    }
    counts.loads->add();
    e.loader = client;
    result = {CheckStatus::kMustLoad, kNoSlot};
  } else {
    // Another extractor is loading this node right now (or has marked it
    // failed and its references are still draining — waiters then see the
    // failure from wait_ready and fail their own batch).
    counts.wait_hits->add();
    result = {CheckStatus::kInFlight, e.slot};
  }
  if (++e.ref_count == 1) sync_rideable_locked(node);
  return result;
}

SlotId FeatureBuffer::allocate_slot(NodeId node, FbClient client) {
  std::unique_lock lock(mu_);
  return allocate_slot_locked(lock, node, client);
}

void FeatureBuffer::allocate_slots(const NodeId* nodes, std::size_t n,
                                   SlotId* out, FbClient client) {
  std::unique_lock lock(mu_);
  batch_locks_->add();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = allocate_slot_locked(lock, nodes[i], client);
  }
}

SlotId FeatureBuffer::allocate_slot_locked(std::unique_lock<std::mutex>& lock,
                                           NodeId node, FbClient client) {
  Entry& e = map_[node];
  GD_CHECK_MSG(e.ref_count > 0, "allocate_slot on unreferenced node");
  // Taken over by a serve lookup: the caller's reference stays, so the
  // entry cannot reset or be evicted before the caller waits on it.
  if (e.loader != client) return kNoSlot;
  GD_CHECK_MSG(!e.valid && e.slot == kNoSlot,
               "allocate_slot on node not in kMustLoad state");
  if (standby_size_locked() == 0) {
    slot_waits_->add();
    // A serve lookup may take the load over while this waits.
    slot_available_.wait(lock, [&] {
      return standby_size_locked() > 0 || e.loader != client;
    });
    if (e.loader != client) return kNoSlot;
  }
  // A slot some queued batch still wants goes only when no other is left.
  const std::uint32_t slot = take_standby_locked(/*wanted_ok=*/true);
  reverse_[slot] = node;
  e.slot = static_cast<SlotId>(slot);
  return e.slot;
}

void FeatureBuffer::mark_valid(NodeId node) {
  mark_loaded(&node, 1, nullptr, 0);
}

void FeatureBuffer::mark_failed(NodeId node) {
  {
    std::lock_guard lock(mu_);
    Entry& e = map_[node];
    GD_CHECK_MSG(e.ref_count > 0, "mark_failed on unreferenced node");
    GD_CHECK_MSG(!e.valid, "mark_failed on valid node");
    e.failed = true;
    failed_loads_->add();
  }
  became_valid_.notify_all();
}

SlotId FeatureBuffer::wait_valid(NodeId node) {
  std::unique_lock lock(mu_);
  became_valid_.wait(lock, [&] { return map_[node].valid; });
  return map_[node].slot;
}

std::optional<SlotId> FeatureBuffer::wait_ready(NodeId node,
                                                Duration timeout) {
  std::unique_lock lock(mu_);
  const bool resolved = became_valid_.wait_for(lock, timeout, [&] {
    return map_[node].valid || map_[node].failed;
  });
  if (!resolved) return std::nullopt;
  return map_[node].valid ? map_[node].slot : kNoSlot;
}

void FeatureBuffer::want(const std::vector<NodeId>& nodes, int delta) {
  GD_CHECK_MSG(delta == 1 || delta == -1, "want: delta must be +1 or -1");
  std::lock_guard lock(mu_);
  batch_locks_->add();
  for (const NodeId node : nodes) {
    Entry& e = map_[node];
    if (e.pinned) continue;  // never evicted, never loaded: nothing to hint
    GD_CHECK_MSG(delta > 0 || e.want > 0, "want: hint dropped twice");
    const bool was = e.want > 0;
    e.want += static_cast<std::uint32_t>(delta);
    if (was == (e.want > 0)) continue;
    if (e.ref_count == 0 && e.slot != kNoSlot) {
      // A retired slot changes tier with its node's first or last hint.
      IndexedLruList& from = was ? standby_wanted_ : standby_;
      from.remove(static_cast<std::uint32_t>(e.slot));
      tier_for(node).push_mru(static_cast<std::uint32_t>(e.slot));
    }
    sync_rideable_locked(node);
  }
}

std::size_t FeatureBuffer::claim_rides(const NodeId* nodes, std::size_t n,
                                       SlotId* out) {
  std::fill(out, out + n, kNoSlot);
  std::size_t claimed = 0;
  std::lock_guard lock(mu_);
  batch_locks_->add();
  for (std::size_t i = 0; i < n; ++i) {
    Entry& e = map_[nodes[i]];
    if (e.want == 0 || e.ref_count > 0 || e.valid || e.pinned) continue;
    const std::uint32_t slot = take_standby_locked(/*wanted_ok=*/false);
    if (slot == IndexedLruList::kNil) break;  // the rest stay unclaimed
    reverse_[slot] = nodes[i];
    e.slot = static_cast<SlotId>(slot);
    e.ref_count = 1;
    e.loader = FbClient::kTrain;
    sync_rideable_locked(nodes[i]);
    out[i] = e.slot;
    ++claimed;
  }
  prefetches_->add(claimed);
  return claimed;
}

void FeatureBuffer::mark_loaded(const NodeId* loaded, std::size_t n_loaded,
                                const NodeId* rides, std::size_t n_rides) {
  bool freed = false;
  {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < n_loaded; ++i) {
      Entry& e = map_[loaded[i]];
      GD_CHECK_MSG(e.slot != kNoSlot, "mark_loaded without a slot");
      e.valid = true;
    }
    for (std::size_t i = 0; i < n_rides; ++i) {
      Entry& e = map_[rides[i]];
      GD_CHECK_MSG(e.slot != kNoSlot && e.ref_count > 0 && !e.failed,
                   "mark_loaded ride without a ride claim");
      e.valid = true;
      freed |= retire_locked(rides[i]);
    }
    if (freed) publish_standby_locked();
  }
  became_valid_.notify_all();
  if (freed) slot_available_.notify_all();
}

bool FeatureBuffer::retire_locked(NodeId node) {
  GD_DCHECK_MSG(node < map_.size(), "release on out-of-range node");
  Entry& e = map_[node];
  // Pinned hot nodes hold no references (check_and_ref never bumps them),
  // so a symmetric release is a no-op — their slots never rejoin standby.
  if (e.pinned) return false;
  // Refcount underflow means a double release (a serve- or release-path
  // bug); failing loudly here beats silently pushing a live slot onto the
  // standby list and corrupting whoever reuses it.
  GD_CHECK_MSG(e.ref_count > 0, "release without reference (refcount underflow)");
  if (--e.ref_count != 0) return false;
  bool freed = false;
  if (e.failed) {
    // Failed load fully resets at the last release: the slot (if one was
    // allocated) returns to standby with no occupant, and the entry goes
    // back to the unbuffered state so a later batch retries from scratch.
    // Its look-ahead hints belong to the queued batches and stay.
    freed = e.slot != kNoSlot;
    if (freed) {
      reverse_[static_cast<std::size_t>(e.slot)] = kInvalidNode;
      standby_.push_mru(static_cast<std::uint32_t>(e.slot));
    }
    e = Entry{.want = e.want};
  } else if (e.slot != kNoSlot) {
    // Retired: slot joins the MRU end of its standby tier; the mapping
    // entry stays valid so the node can be reused across mini-batches.
    tier_for(node).push_mru(static_cast<std::uint32_t>(e.slot));
    freed = true;
  }
  sync_rideable_locked(node);
  return freed;
}

void FeatureBuffer::release_one(NodeId node) {
  bool freed = false;
  {
    std::lock_guard lock(mu_);
    freed = retire_locked(node);
    if (freed) publish_standby_locked();
  }
  if (freed) slot_available_.notify_all();
}

void FeatureBuffer::release(const std::vector<NodeId>& nodes) {
  bool freed = false;
  {
    std::lock_guard lock(mu_);
    batch_locks_->add();
    for (NodeId node : nodes) freed |= retire_locked(node);
    if (freed) publish_standby_locked();
  }
  if (freed) slot_available_.notify_all();
}

std::vector<SlotId> FeatureBuffer::pin_hot(
    const std::vector<NodeId>& hot_nodes) {
  std::lock_guard lock(mu_);
  if (hot_nodes.size() >= num_slots_) {
    throw std::invalid_argument(
        "pin_hot: hot set (" + std::to_string(hot_nodes.size()) +
        " nodes) must leave at least one cold slot of " +
        std::to_string(num_slots_));
  }
  if (standby_size_locked() != num_slots_ || hot_count_ != 0) {
    throw std::logic_error(
        "pin_hot requires an idle feature buffer (all slots on standby, no "
        "prior hot partition)");
  }
  // Validate the whole set before touching any state: a rejected pin must
  // leave the buffer exactly as it found it (all slots on standby).
  std::vector<bool> seen(map_.size(), false);
  for (NodeId node : hot_nodes) {
    if (node >= map_.size() || seen[node]) {
      throw std::invalid_argument(
          "pin_hot: hot set contains an out-of-range or duplicate node (" +
          std::to_string(node) + ")");
    }
    seen[node] = true;
  }
  hot_map_.assign(map_.size(), kNoSlot);
  std::vector<SlotId> out;
  out.reserve(hot_nodes.size());
  for (NodeId node : hot_nodes) {
    const std::uint32_t slot = take_standby_locked(/*wanted_ok=*/true);
    reverse_[slot] = node;
    Entry& e = map_[node];
    e.slot = static_cast<SlotId>(slot);
    e.pinned = true;
    sync_rideable_locked(node);
    hot_map_[node] = e.slot;
    out.push_back(e.slot);
  }
  hot_count_ = hot_nodes.size();
  publish_standby_locked();
  hot_slots_gauge_->set(static_cast<std::int64_t>(hot_count_));
  cold_slots_gauge_->set(static_cast<std::int64_t>(num_slots_ - hot_count_));
  return out;
}

void FeatureBuffer::seal_hot() {
  {
    std::lock_guard lock(mu_);
    for (NodeId node = 0; node < hot_map_.size(); ++node) {
      if (hot_map_[node] == kNoSlot) continue;
      GD_CHECK_MSG(map_[node].valid, "seal_hot before every pinned node "
                                     "was loaded and mark_valid()ed");
    }
  }
  // Release-store pairs with the acquire-load in hot_slot(): the fully
  // written hot_map_ is visible to any thread that observes sealed==true.
  hot_sealed_.store(true, std::memory_order_release);
}

void FeatureBuffer::record_hot_hits(std::uint64_t n, FbClient client) {
  by_client_[static_cast<std::size_t>(client)].hot_hits->add(n);
}

FeatureBuffer::Entry FeatureBuffer::entry(NodeId node) const {
  std::lock_guard lock(mu_);
  return map_[node];
}

NodeId FeatureBuffer::reverse(SlotId slot) const {
  std::lock_guard lock(mu_);
  return reverse_[static_cast<std::size_t>(slot)];
}

std::size_t FeatureBuffer::standby_size() const {
  std::lock_guard lock(mu_);
  return standby_size_locked();
}

FeatureBufferStats FeatureBuffer::stats() const {
  const FeatureBufferStats train = stats(FbClient::kTrain);
  const FeatureBufferStats serve = stats(FbClient::kServe);
  FeatureBufferStats s;
  s.hot_hits = train.hot_hits + serve.hot_hits;
  s.reuse_hits = train.reuse_hits + serve.reuse_hits;
  s.wait_hits = train.wait_hits + serve.wait_hits;
  s.loads = train.loads + serve.loads;
  s.slot_waits = slot_waits_->value();
  s.failed_loads = failed_loads_->value();
  s.batch_lock_acquisitions = batch_locks_->value();
  return s;
}

FeatureBufferStats FeatureBuffer::stats(FbClient client) const {
  const ClientCounters& c = by_client_[static_cast<std::size_t>(client)];
  FeatureBufferStats s;
  s.hot_hits = c.hot_hits->value();
  s.reuse_hits = c.reuse_hits->value();
  s.wait_hits = c.wait_hits->value();
  s.loads = c.loads->value();
  return s;
}

}  // namespace gnndrive
