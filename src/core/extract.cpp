#include "core/extract.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "gpu/gpu.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

namespace {

bool transient_error(std::int32_t res) {
  return res == -EIO || res == -ETIMEDOUT;
}

std::uint64_t elapsed_ns(TimePoint begin, TimePoint end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

}  // namespace

std::uint32_t covering_row_bytes(std::uint32_t row_bytes,
                                 std::uint32_t align) {
  const std::uint32_t max_phase =
      row_bytes % kSectorSize == 0 ? align - kSectorSize : align;
  return static_cast<std::uint32_t>(
      round_up(std::uint64_t{row_bytes} + max_phase, align));
}

ExtractMetricHooks extract_metric_hooks(Telemetry* telemetry) {
  if (telemetry == nullptr) return {};
  MetricsRegistry& reg = *telemetry->metrics();
  return {&reg.counter("io.coalesce.segments"),
          &reg.counter("io.coalesce.rows"),
          &reg.histogram("io.coalesce.rows_per_read"),
          &reg.gauge("io.staging_in_use"), &reg.counter("fault.io_retries")};
}

std::uint32_t staging_row_bytes_for(const CoalesceConfig& coalesce,
                                    std::uint32_t covering_row_bytes) {
  if (!coalesce.enabled) return covering_row_bytes;
  const auto rounded = static_cast<std::uint32_t>(
      round_up(std::max(coalesce.max_coalesce_bytes, 1u), kSectorSize));
  return std::max(rounded, covering_row_bytes);
}

std::uint32_t staging_rows_for(const CoalesceConfig& /*coalesce*/,
                               std::uint32_t ring_depth) {
  return std::max(ring_depth, 1u);
}

std::uint64_t staging_arena_bytes(std::uint32_t ring_depth,
                                  std::uint32_t max_segment_bytes) {
  const std::uint64_t depth = std::max(ring_depth, 1u);
  return std::clamp<std::uint64_t>(depth * kPageSize, max_segment_bytes,
                                   depth * max_segment_bytes);
}

StagingArena::StagingArena(std::uint64_t bytes, std::uint32_t max_blocks,
                           std::uint32_t align)
    : align_(align), capacity_(round_down(bytes, align)),
      max_blocks_(max_blocks) {
  GD_CHECK(align > 0 && max_blocks > 0);
  if (capacity_ > 0) free_.emplace(0, capacity_);
}

bool StagingArena::fits_locked(std::uint64_t need) const {
  if (blocks_ == max_blocks_) return false;
  for (const auto& [off, len] : free_) {
    if (len >= need) return true;
  }
  return false;
}

std::optional<std::uint64_t> StagingArena::allocate(std::uint32_t len) {
  const std::uint64_t need = round_up(len, align_);
  std::lock_guard lk(mu_);
  if (blocks_ == max_blocks_) return std::nullopt;
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < need) continue;
    const std::uint64_t off = it->first;
    const std::uint64_t rest = it->second - need;
    free_.erase(it);
    if (rest > 0) free_.emplace(off + need, rest);
    ++blocks_;
    return off;
  }
  return std::nullopt;
}

void StagingArena::release(std::uint64_t offset, std::uint32_t len) {
  const std::uint64_t need = round_up(len, align_);
  std::uint64_t begin = offset;
  std::uint64_t size = need;
  std::lock_guard lk(mu_);
  GD_CHECK_MSG(blocks_ > 0 && offset + need <= capacity_,
               "StagingArena: release of bytes it never handed out");
  auto next = free_.lower_bound(offset);
  GD_CHECK_MSG(next == free_.end() || next->first >= offset + need,
               "StagingArena: release overlaps free bytes");
  if (next != free_.begin()) {
    const auto prev = std::prev(next);
    GD_CHECK_MSG(prev->first + prev->second <= offset,
                 "StagingArena: release overlaps free bytes");
    if (prev->first + prev->second == offset) {  // merge with the block below
      begin = prev->first;
      size += prev->second;
      free_.erase(prev);
    }
  }
  if (next != free_.end() && next->first == offset + need) {  // ...and above
    size += next->second;
    free_.erase(next);
  }
  free_.emplace(begin, size);
  --blocks_;
  // Under the lock: the waiter may own this arena and destroy it as soon
  // as its predicate holds.
  freed_.notify_all();
}

bool StagingArena::wait_fit_until(std::uint32_t len, TimePoint deadline) {
  const std::uint64_t need = round_up(len, align_);
  std::unique_lock lk(mu_);
  return freed_.wait_until(lk, deadline, [&] { return fits_locked(need); });
}

std::size_t StagingArena::free_blocks() const {
  std::lock_guard lk(mu_);
  return free_.size();
}

SegmentPlan plan_segments(const std::vector<std::uint32_t>& load_idx,
                          const std::vector<NodeId>& nodes,
                          const OnDiskLayout& lay, std::uint32_t row_bytes,
                          std::uint32_t max_bytes, std::uint32_t max_rows,
                          std::uint32_t max_gap_bytes, std::uint32_t align) {
  GD_CHECK_MSG(max_rows >= 1, "plan_segments needs max_rows >= 1");
  SegmentPlan plan;
  plan.rows.reserve(load_idx.size());
  if (load_idx.empty()) return plan;

  // Sorted run over disk offsets. Distinct nodes have distinct offsets
  // (layout plans are bijections, so this holds for packed stores too) and
  // the order is total for a triaged (deduplicated) load set.
  struct Item {
    std::uint64_t off;
    std::uint32_t load_pos;
  };
  std::vector<Item> items;
  items.reserve(load_idx.size());
  for (std::uint32_t p = 0; p < load_idx.size(); ++p) {
    items.push_back({lay.feature_offset_of(nodes[load_idx[p]]), p});
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.off < b.off; });

  GD_CHECK_MSG(covering_row_bytes(row_bytes, align) <= max_bytes,
               "max_coalesce_bytes below one covering row");

  SegmentPlan::Segment seg;
  std::uint64_t seg_end = 0;  // exclusive end of the current segment
  const auto flush = [&] {
    if (seg.num_rows == 0) return;
    seg.len = static_cast<std::uint32_t>(seg_end - seg.base);
    plan.segments.push_back(seg);
  };
  for (const Item& it : items) {
    const std::uint64_t cover_begin = round_down(it.off, align);
    const std::uint64_t cover_end = round_up(it.off + row_bytes, align);
    const bool fits =
        seg.num_rows > 0 && seg.num_rows < max_rows &&
        cover_begin <= seg_end + max_gap_bytes &&
        std::max(cover_end, seg_end) - seg.base <= max_bytes;
    if (!fits) {
      flush();
      seg = SegmentPlan::Segment{};
      seg.base = cover_begin;
      seg.first_row = static_cast<std::uint32_t>(plan.rows.size());
      seg_end = cover_begin;
    }
    seg_end = std::max(seg_end, cover_end);
    plan.rows.push_back(
        {it.load_pos, static_cast<std::uint32_t>(it.off - seg.base)});
    ++seg.num_rows;
  }
  flush();
  return plan;
}

void triage_batch(FeatureBuffer& fb, SampledBatch& batch,
                  std::vector<std::uint32_t>& wait_idx,
                  std::vector<std::uint32_t>& load_idx, FbClient client) {
  const std::size_t n = batch.nodes.size();
  if (fb.hot_sealed()) {
    // Hot fast path: pinned nodes resolve lock-free through the sealed
    // hot map — no slot allocation, no reference, no buffer lock. Only the
    // cold residue takes the batched lock below.
    std::vector<NodeId> cold_nodes;
    std::vector<std::uint32_t> cold_pos;
    cold_nodes.reserve(n);
    cold_pos.reserve(n);
    std::uint64_t hot = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const SlotId slot = fb.hot_slot(batch.nodes[i]);
      if (slot != kNoSlot) {
        batch.alias[i] = slot;
        ++hot;
      } else {
        cold_nodes.push_back(batch.nodes[i]);
        cold_pos.push_back(i);
      }
    }
    fb.record_hot_hits(hot, client);
    std::vector<FeatureBuffer::CheckResult> results(cold_nodes.size());
    fb.check_and_ref_batch(cold_nodes.data(), cold_nodes.size(),
                           results.data(), client);
    for (std::uint32_t c = 0; c < cold_nodes.size(); ++c) {
      const std::uint32_t i = cold_pos[c];
      switch (results[c].status) {
        case FeatureBuffer::CheckStatus::kReady:
          batch.alias[i] = results[c].slot;
          break;
        case FeatureBuffer::CheckStatus::kInFlight:
          wait_idx.push_back(i);
          break;
        case FeatureBuffer::CheckStatus::kMustLoad:
          load_idx.push_back(i);
          break;
      }
    }
    return;
  }
  std::vector<FeatureBuffer::CheckResult> results(n);
  fb.check_and_ref_batch(batch.nodes.data(), n, results.data(), client);
  for (std::uint32_t i = 0; i < n; ++i) {
    switch (results[i].status) {
      case FeatureBuffer::CheckStatus::kReady:
        batch.alias[i] = results[i].slot;
        break;
      case FeatureBuffer::CheckStatus::kInFlight:
        wait_idx.push_back(i);
        break;
      case FeatureBuffer::CheckStatus::kMustLoad:
        load_idx.push_back(i);
        break;
    }
  }
}

bool resolve_wait_list(FeatureBuffer& fb, SampledBatch& batch,
                       const std::vector<std::uint32_t>& wait_idx,
                       Duration timeout) {
  for (std::uint32_t i : wait_idx) {
    const auto slot = fb.wait_ready(batch.nodes[i], timeout);
    if (!slot.has_value() || *slot == kNoSlot) return false;
    batch.alias[i] = *slot;
  }
  return true;
}

void set_timeouts(ExtractPolicy& policy, double request_timeout_ms,
                  double wait_list_timeout_ms) {
  policy.request_timeout = from_us(request_timeout_ms * 1e3);
  policy.poll = std::max(from_us(request_timeout_ms * 1e3 / 4), from_us(500.0));
  policy.wait_list_timeout = from_us(wait_list_timeout_ms * 1e3);
}

bool extract_batch(SampledBatch& batch, const ExtractEnv& env,
                   const ExtractPolicy& policy,
                   const ExtractMetricHooks& hooks, ExtractCounters& counters,
                   ExtractTrace* trace) {
  std::vector<std::uint32_t> wait_idx;
  std::vector<std::uint32_t> load_idx;
  {
    BusyScope busy(env.telemetry);
    triage_batch(*env.fb, batch, wait_idx, load_idx, policy.client);
  }
  return extract_load_set(batch, load_idx, env, policy, hooks, counters,
                          trace) &&
         resolve_wait_list(*env.fb, batch, wait_idx, policy.wait_list_timeout);
}

bool extract_load_set(SampledBatch& batch,
                      const std::vector<std::uint32_t>& load_idx,
                      const ExtractEnv& env, const ExtractPolicy& policy,
                      const ExtractMetricHooks& hooks,
                      ExtractCounters& counters, ExtractTrace* trace) {
  FeatureBuffer& fb = *env.fb;
  const OnDiskLayout& lay = *env.layout;
  const std::uint32_t row_bytes = env.row_bytes;
  const bool tracing = trace != nullptr && trace->tracing;
  GD_CHECK_MSG(!env.gds || env.gpu != nullptr, "GDS extraction needs a GPU");
  // A host staging arena scatters through asynchronous H2D copies
  // when a GPU holds the feature buffer; every other scatter is synchronous.
  const bool async_scatter = env.gpu != nullptr && !env.gds;

  const CoalesceConfig& co = policy.coalesce;
  const std::uint32_t max_bytes = env.staging_row_bytes;
  const std::uint32_t max_rows = co.enabled ? co.max_rows_per_read : 1;
  const std::uint32_t max_gap = co.enabled ? co.max_gap_bytes : 0;
  const std::uint32_t align = env.gds ? kPageSize : kSectorSize;
  // Planned segments come first; re-reads of split segments are appended.
  SegmentPlan plan = plan_segments(load_idx, batch.nodes, lay, row_bytes,
                                   max_bytes, max_rows, max_gap, align);
  const std::size_t n_planned = plan.segments.size();

  // Each segment holds its own bytes of the ring's arena from submission
  // until its rows have left them; H2D scatter callbacks release from the
  // DMA thread.
  StagingArena arena(
      staging_arena_bytes(env.staging_rows, env.staging_row_bytes),
      env.staging_rows, align);
  // Async H2D transfers report through this tracker from the DMA thread, so
  // every field mutation happens under `m` and notifications stay under the
  // lock (the waiter owns this stack frame and may destroy it the moment its
  // predicate holds).
  struct TransferTracker {
    std::mutex m;
    std::condition_variable cv;
    std::size_t segments_done = 0;  ///< segments whose last copy landed
  } tracker;
  // A segment whose rows are copying to the device: its own rows, then its
  // rides, all marked valid by the copy that lands last, which also hands
  // its staging bytes back. Kept until the drain below.
  struct SegmentCopies {
    std::vector<NodeId> nodes;
    std::size_t n_loaded = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    std::atomic<std::uint32_t> left{0};
  };
  std::vector<std::unique_ptr<SegmentCopies>> copying;
  const auto segment_copied = [&fb, &tracker, &arena,
                               g_staging = hooks.staging_in_use](
                                  SegmentCopies& sc) {
    if (sc.left.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    fb.mark_loaded(sc.nodes.data(), sc.n_loaded, sc.nodes.data() + sc.n_loaded,
                   sc.nodes.size() - sc.n_loaded);
    std::lock_guard lk(tracker.m);
    // Released before segments_done moves, so the arena outlives this
    // touch.
    arena.release(sc.offset, sc.len);
    if (g_staging != nullptr) g_staging->sub(sc.len);
    ++tracker.segments_done;
    tracker.cv.notify_all();
  };

  std::vector<std::uint64_t> staging_of(n_planned, 0);  ///< arena offsets
  std::vector<std::uint32_t> attempts(n_planned, 0);
  struct RetryEntry {
    TimePoint due;
    std::size_t s;
  };
  std::vector<RetryEntry> retries;  // segments sitting out a backoff delay

  std::size_t submitted = 0;            // planned segments handed out
  std::size_t next_reread = n_planned;  // first re-read not yet handed out
  std::size_t resolved = 0;  // segments that reached a terminal state
  std::size_t inflight = 0;
  bool failed = false;

  // Scratch reused per segment for the batched slot allocation.
  std::vector<NodeId> seg_nodes;
  std::vector<SlotId> seg_slots;
  // Rows a serve lookup took over before this loop allocated them.
  std::vector<std::uint32_t> taken_idx;
  // Scratch reused per completed segment: the rows it copies into the
  // buffer, its own first, then the gap rows it rides.
  std::vector<NodeId> copy_nodes;
  std::vector<SlotId> copy_slots;
  std::vector<std::uint32_t> copy_offsets;  // within the segment

  const auto submit_segment = [&](std::size_t s) {
    const TimePoint t = tracing ? Clock::now() : TimePoint{};
    const SegmentPlan::Segment& seg = plan.segments[s];
    env.ring->prep_read(seg.base, seg.len, env.staging_base + staging_of[s],
                        s);
    env.ring->submit();
    ++inflight;
    if (tracing) trace->submit_ns += elapsed_ns(t, Clock::now());
  };
  const auto free_staging = [&](std::size_t s) {
    arena.release(staging_of[s], plan.segments[s].len);
    if (hooks.staging_in_use != nullptr) {
      hooks.staging_in_use->sub(plan.segments[s].len);
    }
  };
  // A multi-row segment that fails for good may carry good rows merged
  // with the bad bytes (neighbours, or rows joined across a gap). Each of
  // its rows is read once more on its own, without retries, so only rows
  // whose own read fails are marked failed and batches waiting on the
  // others do not fail with them. The rows keep their slots; the segment's
  // bytes go back.
  const auto split_segment = [&](std::size_t s) {
    const SegmentPlan::Segment seg = plan.segments[s];  // appends move it
    for (std::uint32_t r = seg.first_row; r < seg.first_row + seg.num_rows;
         ++r) {
      const std::uint64_t off = seg.base + plan.rows[r].seg_offset;
      SegmentPlan::Segment one;
      one.base = round_down(off, align);
      one.len = static_cast<std::uint32_t>(
          round_up(off + row_bytes, align) - one.base);
      one.first_row = static_cast<std::uint32_t>(plan.rows.size());
      one.num_rows = 1;
      const SegmentPlan::Row row{plan.rows[r].load_pos,
                                 static_cast<std::uint32_t>(off - one.base)};
      plan.rows.push_back(row);
      plan.segments.push_back(one);
    }
    staging_of.resize(plan.segments.size(), 0);
    attempts.resize(plan.segments.size(), 0);
    free_staging(s);
    ++resolved;
  };
  // The copy list of a completed segment: its own rows, then its
  // look-ahead rides. A planned training segment rides every other row
  // lying wholly inside its bytes whose node a queued batch wants and
  // nobody holds: claimed in one buffer-lock take, only when the lock-free
  // scan found one, and scattered from the same staging bytes. Serve reads
  // never ride: their latency would wait on the copies.
  const auto list_copies = [&](std::size_t s) {
    const SegmentPlan::Segment& seg = plan.segments[s];
    copy_nodes.clear();
    copy_slots.clear();
    copy_offsets.clear();
    for (std::uint32_t r = seg.first_row; r < seg.first_row + seg.num_rows;
         ++r) {
      const std::uint32_t i = load_idx[plan.rows[r].load_pos];
      copy_nodes.push_back(batch.nodes[i]);
      copy_slots.push_back(batch.alias[i]);
      copy_offsets.push_back(plan.rows[r].seg_offset);
    }
    if (policy.client != FbClient::kTrain || s >= n_planned) return;
    const std::uint64_t seg_end = seg.base + seg.len;
    const std::uint64_t feat = lay.features_offset;
    if (seg_end <= feat) return;
    const std::uint64_t n_rows = lay.features_bytes / row_bytes;
    std::uint64_t row =
        seg.base <= feat ? 0 : div_ceil(seg.base - feat, row_bytes);
    const std::uint64_t end_row =
        std::min(n_rows, (seg_end - feat) / row_bytes);
    std::uint32_t own = seg.first_row;  // the segment's rows, by offset
    for (; row < end_row; ++row) {
      const std::uint64_t off = feat + row * row_bytes;
      const auto seg_offset = static_cast<std::uint32_t>(off - seg.base);
      while (own < seg.first_row + seg.num_rows &&
             plan.rows[own].seg_offset < seg_offset) {
        ++own;
      }
      if (own < seg.first_row + seg.num_rows &&
          plan.rows[own].seg_offset == seg_offset) {
        continue;
      }
      const NodeId node = lay.node_at_row(row);
      if (fb.ride_candidate(node)) {
        copy_nodes.push_back(node);
        copy_offsets.push_back(seg_offset);
      }
    }
    const std::size_t n_own = seg.num_rows;
    if (copy_nodes.size() == n_own) return;
    copy_slots.resize(copy_nodes.size());
    fb.claim_rides(copy_nodes.data() + n_own, copy_nodes.size() - n_own,
                   copy_slots.data() + n_own);
    std::size_t kept = n_own;
    for (std::size_t k = n_own; k < copy_nodes.size(); ++k) {
      if (copy_slots[k] == kNoSlot) continue;
      copy_nodes[kept] = copy_nodes[k];
      copy_offsets[kept] = copy_offsets[k];
      copy_slots[kept++] = copy_slots[k];
    }
    copy_nodes.resize(kept);
    copy_offsets.resize(kept);
    copy_slots.resize(kept);
  };
  // The next segment waiting for staging bytes: re-reads first, then the
  // plan in order; nullopt when none waits.
  const auto next_to_submit = [&]() -> std::optional<std::size_t> {
    if (next_reread < plan.segments.size()) return next_reread;
    if (submitted < n_planned) return submitted;
    return std::nullopt;
  };

  while (resolved < plan.segments.size()) {
    // Resubmit retries whose backoff elapsed (they keep their bytes).
    if (!retries.empty()) {
      const TimePoint now = Clock::now();
      for (std::size_t k = 0; k < retries.size();) {
        if (retries[k].due <= now) {
          submit_segment(retries[k].s);
          retries[k] = retries.back();
          retries.pop_back();
        } else {
          ++k;
        }
      }
    }
    // Top up submissions while the arena has bytes and slots for the next
    // segment.
    for (auto next = next_to_submit(); next.has_value();
         next = next_to_submit()) {
      const std::size_t s = *next;
      SegmentPlan::Segment& seg = plan.segments[s];
      GD_CHECK(seg.len <= env.staging_row_bytes && seg.len <= arena.capacity());
      const auto offset = arena.allocate(seg.len);
      if (!offset.has_value()) break;
      if (hooks.staging_in_use != nullptr) hooks.staging_in_use->add(seg.len);
      staging_of[s] = *offset;
      if (s >= n_planned) {  // a re-read: its row already holds a slot
        ++next_reread;
        submit_segment(s);
        continue;
      }
      ++submitted;
      // One buffer-lock take allocates every slot of the segment; may block
      // on the standby list exactly like per-node allocate_slot did.
      seg_nodes.clear();
      for (std::uint32_t r = seg.first_row;
           r < seg.first_row + seg.num_rows; ++r) {
        seg_nodes.push_back(batch.nodes[load_idx[plan.rows[r].load_pos]]);
      }
      seg_slots.resize(seg_nodes.size());
      fb.allocate_slots(seg_nodes.data(), seg_nodes.size(), seg_slots.data(),
                        policy.client);
      // A row that a serve lookup took over comes back without a slot and
      // leaves the segment (whose read still spans it); it is waited on
      // after this batch's own loads. A segment left without rows issues
      // no read.
      std::uint32_t kept = seg.first_row;
      for (std::uint32_t r = 0; r < seg_slots.size(); ++r) {
        const SegmentPlan::Row row = plan.rows[seg.first_row + r];
        const std::uint32_t i = load_idx[row.load_pos];
        batch.alias[i] = seg_slots[r];
        if (seg_slots[r] == kNoSlot) {
          taken_idx.push_back(i);
        } else {
          plan.rows[kept++] = row;
        }
      }
      seg.num_rows = kept - seg.first_row;
      if (seg.num_rows == 0) {
        free_staging(s);
        ++resolved;
        continue;
      }
      ++counters.segments;
      counters.rows_loaded += seg.num_rows;
      if (hooks.segments != nullptr) hooks.segments->add();
      if (hooks.rows != nullptr) hooks.rows->add(seg.num_rows);
      if (hooks.rows_per_read != nullptr) {
        hooks.rows_per_read->add_us(static_cast<double>(seg.num_rows));
      }
      submit_segment(s);
    }
    if (inflight == 0) {
      if (resolved == plan.segments.size()) break;
      const auto next = next_to_submit();
      if (!retries.empty()) {
        // Only backed-off segments remain runnable from here; wait until
        // the earliest is due OR a transfer frees the staging bytes that
        // let blocked submissions proceed (sleeping blind on the due time
        // used to ignore those completions).
        TimePoint earliest = retries[0].due;
        for (const RetryEntry& r : retries) {
          earliest = std::min(earliest, r.due);
        }
        const TimePoint tw = tracing ? Clock::now() : TimePoint{};
        if (next.has_value()) {
          arena.wait_fit_until(plan.segments[*next].len, earliest);
        } else {
          std::this_thread::sleep_until(earliest);
        }
        if (tracing) trace->copy_wait_ns += elapsed_ns(tw, Clock::now());
        continue;
      }
      // Nothing in flight to reap: the next segment waits for transfers to
      // free staging bytes.
      ScopedTrace st(env.telemetry, TraceCat::kIoWait);
      const TimePoint tw = tracing ? Clock::now() : TimePoint{};
      arena.wait_fit_until(plan.segments[*next].len, TimePoint::max());
      if (tracing) trace->copy_wait_ns += elapsed_ns(tw, Clock::now());
      continue;
    }
    // Reap one segment; on success its rows scatter immediately and overlap
    // the loading of the next segments. The watchdog turns overdue requests
    // into -ETIMEDOUT completions so a stuck device can never wedge this
    // loop.
    const TimePoint tw = tracing ? Clock::now() : TimePoint{};
    const auto cqe_opt = env.ring->wait_cqe_for(policy.poll);
    if (tracing) trace->ssd_wait_ns += elapsed_ns(tw, Clock::now());
    if (!cqe_opt) {
      env.ring->cancel_expired(policy.request_timeout);
      continue;
    }
    --inflight;
    const std::size_t s = cqe_opt->user_data;
    const SegmentPlan::Segment& seg = plan.segments[s];
    if (cqe_opt->res < 0) {
      ++counters.io_errors;
      if (cqe_opt->res == -ETIMEDOUT) ++counters.io_timeouts;
      if (s < n_planned && transient_error(cqe_opt->res) &&
          attempts[s] < policy.max_retries) {
        ++attempts[s];
        ++counters.io_retries;
        if (hooks.retries != nullptr) hooks.retries->add();
        const Duration delay =
            policy.backoff ? policy.backoff(attempts[s]) : Duration::zero();
        if (delay <= Duration::zero()) {
          submit_segment(s);  // keeps its staging bytes
        } else {
          retries.push_back({Clock::now() + delay, s});
        }
        continue;
      }
      // A read spanning more than its one row's bytes (more rows, or rows
      // that serving took over) re-reads its rows one by one.
      const std::uint64_t off = seg.base + plan.rows[seg.first_row].seg_offset;
      if (seg.num_rows > 1 ||
          seg.len > round_up(off + row_bytes, align) - round_down(off, align)) {
        split_segment(s);
        continue;
      }
      // One row failed for good: it alone is marked failed (waking its
      // waiters) and the batch fails, while the rest of the batch still
      // loads, since other batches may be waiting on those rows.
      const NodeId node =
          batch.nodes[load_idx[plan.rows[seg.first_row].load_pos]];
      if (!failed) {
        if (policy.log_epoch) {
          log_structured(LogLevel::kWarn, policy.fail_event,
                         {kv("batch", policy.batch_id),
                          kv("epoch", policy.epoch), kv("node", node),
                          kv("res", cqe_opt->res),
                          kv("attempts", attempts[s])});
        } else {
          log_structured(LogLevel::kWarn, policy.fail_event,
                         {kv("batch", policy.batch_id), kv("node", node),
                          kv("res", cqe_opt->res),
                          kv("attempts", attempts[s])});
        }
      }
      fb.mark_failed(node);
      free_staging(s);
      ++resolved;
      failed = true;
      continue;
    }
    if (attempts[s] > 0) ++counters.io_recovered;
    ++resolved;
    list_copies(s);
    const std::uint8_t* const seg_base = env.staging_base + staging_of[s];
    const std::size_t n_own = seg.num_rows;
    if (async_scatter) {
      // One copy per row; the staging bytes recycle, and the rows turn
      // valid, once the segment's last copy has landed.
      auto& sc = *copying.emplace_back(std::make_unique<SegmentCopies>());
      sc.nodes = copy_nodes;
      sc.n_loaded = n_own;
      sc.offset = staging_of[s];
      sc.len = seg.len;
      sc.left.store(static_cast<std::uint32_t>(sc.nodes.size()),
                    std::memory_order_relaxed);
      for (std::size_t k = 0; k < copy_nodes.size(); ++k) {
        env.gpu->memcpy_h2d_async(
            fb.slot_data(copy_slots[k]), seg_base + copy_offsets[k], row_bytes,
            [&segment_copied, sc = &sc] { segment_copied(*sc); });
      }
    } else {
      // CPU training/serving keeps the feature buffer in host memory: a
      // plain copy per row. Under GDS the segment already sits in device
      // memory: one on-device copy kernel places all of its rows. Either
      // way the staging bytes recycle at once.
      const auto scatter = [&] {
        for (std::size_t k = 0; k < copy_nodes.size(); ++k) {
          std::memcpy(fb.slot_data(copy_slots[k]), seg_base + copy_offsets[k],
                      row_bytes);
        }
      };
      if (env.gds) {
        env.gpu->launch(scatter);
      } else {
        scatter();
      }
      fb.mark_loaded(copy_nodes.data(), n_own, copy_nodes.data() + n_own,
                     copy_nodes.size() - n_own);
      free_staging(s);
    }
  }

  // Always drain transfers — their callbacks touch this stack frame.
  if (!copying.empty()) {
    ScopedTrace st(env.telemetry, TraceCat::kIoWait);
    const TimePoint tw = tracing ? Clock::now() : TimePoint{};
    std::unique_lock lk(tracker.m);
    tracker.cv.wait(
        lk, [&] { return tracker.segments_done == copying.size(); });
    if (tracing) trace->copy_wait_ns += elapsed_ns(tw, Clock::now());
  }
  // Taken-over rows resolve like the wait list, after this batch's own
  // loads: a loader never waits while holding reads it has not issued.
  return !failed &&
         resolve_wait_list(fb, batch, taken_idx, policy.wait_list_timeout);
}

}  // namespace gnndrive
