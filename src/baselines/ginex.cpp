#include "baselines/ginex.hpp"

#include <atomic>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "aio/io_ring.hpp"
#include "baselines/batch_serde.hpp"
#include "core/stage.hpp"
#include "util/logging.hpp"

namespace gnndrive {

namespace {

/// Loads feature rows (node, cache-slot) into `storage` through a direct-I/O
/// ring at the given depth. Rows that are not sector-multiples bounce
/// through per-request scratch rows managed with a free list (completions
/// arrive out of order).
void load_rows_into_cache(
    SsdDevice& ssd, Telemetry* tel, const OnDiskLayout& lay,
    const std::vector<std::pair<NodeId, std::uint32_t>>& rows,
    unsigned depth, std::uint32_t dim, float* storage) {
  if (rows.empty()) return;
  const std::uint64_t row_bytes = lay.feature_row_bytes;
  const bool aligned = row_bytes % kSectorSize == 0;
  IoRingConfig rc;
  rc.queue_depth = depth;
  rc.direct = true;
  IoRing ring(ssd, rc, nullptr, tel);

  const std::uint64_t bounce_row = round_up(row_bytes, kSectorSize) + 1024;
  std::vector<std::uint8_t> bounce(aligned ? 0 : depth * bounce_row);
  std::vector<unsigned> free_bounce;
  for (unsigned i = 0; i < depth; ++i) free_bounce.push_back(i);
  std::vector<unsigned> bounce_of(rows.size(), 0);

  std::size_t submitted = 0;
  std::size_t finished = 0;
  while (finished < rows.size()) {
    while (submitted < rows.size() && ring.in_flight() < depth &&
           (aligned || !free_bounce.empty())) {
      const auto [node, slot] = rows[submitted];
      // feature_offset_of is layout-aware (src/layout): under a packed
      // store this reads the node's permuted physical row, so Ginex's
      // Belady cache — keyed by node id, layout-independent — still caches
      // the right bytes. Differential-tested against the identity layout.
      const std::uint64_t off = lay.feature_offset_of(node);
      if (aligned) {
        ring.prep_read(off, static_cast<std::uint32_t>(row_bytes),
                       storage + static_cast<std::size_t>(slot) * dim,
                       submitted);
      } else {
        const unsigned bslot = free_bounce.back();
        free_bounce.pop_back();
        bounce_of[submitted] = bslot;
        const std::uint64_t base = round_down(off, kSectorSize);
        const auto len = static_cast<std::uint32_t>(
            round_up(off + row_bytes, kSectorSize) - base);
        ring.prep_read(base, len, bounce.data() + bslot * bounce_row,
                       submitted);
      }
      ring.submit();
      ++submitted;
    }
    const Cqe cqe = ring.wait_cqe();
    GD_CHECK(cqe.res >= 0);
    if (!aligned) {
      const auto [node, slot] = rows[cqe.user_data];
      const std::uint64_t off = lay.feature_offset_of(node);
      const std::uint64_t base = round_down(off, kSectorSize);
      const unsigned bslot = bounce_of[cqe.user_data];
      std::memcpy(storage + static_cast<std::size_t>(slot) * dim,
                  bounce.data() + bslot * bounce_row + (off - base),
                  row_bytes);
      free_bounce.push_back(bslot);
    }
    ++finished;
  }
}

/// Bulk sequential I/O against the scratch region, chunked through a ring.
void bulk_io(SsdDevice& ssd, Telemetry* tel, bool write, std::uint64_t offset,
             std::uint8_t* data, std::uint64_t len, unsigned depth) {
  IoRingConfig rc;
  rc.queue_depth = depth;
  rc.direct = true;
  IoRing ring(ssd, rc, nullptr, tel);
  constexpr std::uint64_t kChunk = 256 * 1024;
  const std::uint64_t aligned = round_up(len, kSectorSize);
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  // `data` must have capacity for the sector padding of the last chunk; the
  // callers allocate rounded-up buffers.
  while (done < aligned) {
    while (submitted < aligned && ring.in_flight() < depth) {
      const auto n = static_cast<std::uint32_t>(
          std::min(kChunk, aligned - submitted));
      if (write) {
        ring.prep_write(offset + submitted, n, data + submitted, submitted);
      } else {
        ring.prep_read(offset + submitted, n, data + submitted, submitted);
      }
      ring.submit();
      submitted += n;
    }
    const Cqe cqe = ring.wait_cqe();
    GD_CHECK(cqe.res >= 0);
    done += static_cast<std::uint32_t>(cqe.res);
  }
}

}  // namespace

/// Belady replacement plan for one superbatch, produced by the inspect pass.
struct Ginex::Plan {
  /// Initial cache content: (node, cache slot), loaded synchronously at
  /// superbatch start.
  std::vector<std::pair<NodeId, std::uint32_t>> initial_fill;
  /// Per mini-batch: nodes to evict, then (node, slot) loads.
  std::vector<std::vector<NodeId>> evictions;
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> loads;
};

Ginex::Ginex(const RunContext& ctx, GinexConfig config)
    : ctx_(ctx), config_(std::move(config)),
      sampler_(config_.common.sampler) {
  const Dataset& ds = *ctx_.dataset;
  HostMemory& mem = *ctx_.host_mem;
  metadata_pin_ = PinnedBytes(mem, ds.host_metadata_bytes(), "ginex-meta");

  const auto budget = static_cast<double>(mem.budget());
  const auto neighbor_budget =
      static_cast<std::uint64_t>(budget * config_.neighbor_cache_frac);
  neighbor_cache_ = std::make_unique<CachedTopology>(ds, *ctx_.page_cache,
                                                     neighbor_budget);
  neighbor_cache_pin_ =
      PinnedBytes(mem, neighbor_cache_->cached_bytes(), "ginex-neighbor-cache");

  const auto feature_budget =
      static_cast<std::uint64_t>(budget * config_.feature_cache_frac);
  cache_rows_ = feature_budget / ds.layout().feature_row_bytes;
  GD_CHECK_MSG(cache_rows_ > 0, "ginex feature cache too small");
  feature_cache_pin_ = PinnedBytes(
      mem, cache_rows_ * ds.layout().feature_row_bytes, "ginex-feature-cache");
  cache_storage_.resize(cache_rows_ * ds.spec().feature_dim);

  trainer_ = std::make_unique<GpuTrainer>(ctx_, config_.common, config_.gpu);
}

EpochStats Ginex::run_epoch(std::uint64_t epoch) {
  const Dataset& ds = *ctx_.dataset;
  const std::uint32_t dim = ds.spec().feature_dim;
  const std::uint64_t row_bytes = ds.layout().feature_row_bytes;
  const auto batches = make_minibatches(
      ds.train_nodes(), config_.common.batch_seeds,
      splitmix64(config_.common.run_seed ^ (epoch + 1)));
  const std::size_t n_batches = batches.size();

  EpochStats stats;
  stats.batches = n_batches;
  const TimePoint t_epoch = Clock::now();

  // Live cache map (node -> cache slot), rebuilt per superbatch.
  std::unordered_map<NodeId, std::uint32_t> cache_map;

  for (std::size_t sb_start = 0; sb_start < n_batches;
       sb_start += config_.superbatch) {
    const std::size_t sb_end =
        std::min(n_batches, sb_start + config_.superbatch);
    const std::size_t sb_count = sb_end - sb_start;

    // ---- Phase 1: sample the whole superbatch, spilling results to SSD.
    std::vector<std::uint64_t> spill_offset(sb_count);
    std::vector<std::uint64_t> spill_len(sb_count);
    std::vector<std::vector<NodeId>> node_lists(sb_count);
    {
      const TimePoint t0 = Clock::now();
      std::atomic<std::size_t> next{0};
      std::mutex spill_mu;
      std::uint64_t cursor = ds.layout().scratch_offset;
      StageGroup group;
      group.stage(kSpanSample, config_.num_workers, [&](Stage&, std::uint32_t) {
        std::vector<std::uint8_t> ser;
        for (;;) {
          const std::size_t k = next.fetch_add(1);
          if (k >= sb_count) break;
          const std::size_t b = sb_start + k;
          SampledBatch batch;
          {
            BusyScope busy(ctx_.telemetry);
            batch = sampler_.sample(((epoch + 1) << 24) | b, batches[b],
                                    *neighbor_cache_, &ds.labels());
          }
          node_lists[k] = batch.nodes;
          serialize_batch(batch, ser);
          ser.resize(round_up(ser.size(), kSectorSize));
          std::uint64_t off;
          {
            std::lock_guard lk(spill_mu);
            off = cursor;
            cursor += ser.size();
            GD_CHECK_MSG(cursor <= ds.layout().scratch_offset +
                                       ds.layout().scratch_bytes,
                         "ginex scratch overflow");
          }
          spill_offset[k] = off;
          spill_len[k] = ser.size();
          bulk_io(*ctx_.ssd, ctx_.telemetry, /*write=*/true, off, ser.data(),
                  ser.size(), /*depth=*/4);
        }
      });
      group.run();
      stats.sample_seconds += to_seconds(Clock::now() - t0);
      GD_LOG_INFO("ginex superbatch %zu: sampling %.3fs",
                  sb_start / config_.superbatch,
                  to_seconds(Clock::now() - t0));
    }

    if (config_.common.sample_only) continue;

    // ---- Phase 2: inspect — read sampling results back and compute the
    // Belady-optimal replacement plan over the superbatch's access sequence.
    Plan plan;
    {
      const TimePoint t0 = Clock::now();
      // Read-back I/O charge (the lists were just written; Ginex re-reads
      // them to run its changeset computation).
      {
        std::vector<std::uint8_t> scratch;
        for (std::size_t k = 0; k < sb_count; ++k) {
          scratch.resize(spill_len[k]);
          bulk_io(*ctx_.ssd, ctx_.telemetry, /*write=*/false, spill_offset[k],
                  scratch.data(), spill_len[k], /*depth=*/16);
        }
      }
      const TimePoint t_belady = Clock::now();
      BusyScope busy(ctx_.telemetry);
      plan.evictions.resize(sb_count);
      plan.loads.resize(sb_count);

      // Future-use lists per node.
      std::unordered_map<NodeId, std::vector<std::uint32_t>> uses;
      for (std::size_t k = 0; k < sb_count; ++k) {
        for (NodeId v : node_lists[k]) {
          uses[v].push_back(static_cast<std::uint32_t>(k));
        }
      }
      constexpr std::uint32_t kNever = 0xffffffffu;
      std::unordered_map<NodeId, std::uint32_t> use_ptr;
      const auto next_use_after = [&](NodeId v,
                                      std::uint32_t now) -> std::uint32_t {
        const auto& list = uses[v];
        auto& ptr = use_ptr[v];
        while (ptr < list.size() && list[ptr] <= now) ++ptr;
        return ptr < list.size() ? list[ptr] : kNever;
      };

      // Simulated cache: slot assignment + lazy max-heap on next use.
      std::unordered_map<NodeId, std::uint32_t> sim_map;
      std::vector<std::uint32_t> free_slots;
      for (std::uint32_t s = 0; s < cache_rows_; ++s) free_slots.push_back(s);
      using HeapEntry = std::pair<std::uint32_t, NodeId>;  // (next_use, node)
      std::priority_queue<HeapEntry> heap;
      std::unordered_map<NodeId, std::uint32_t> heap_key;

      // Initial fill: earliest-first-use nodes up to capacity (the Belady
      // warm start Ginex loads synchronously at superbatch start).
      for (std::size_t k = 0; k < sb_count && free_slots.size() > 0; ++k) {
        for (NodeId v : node_lists[k]) {
          if (free_slots.empty()) break;
          if (sim_map.count(v) != 0) continue;
          const std::uint32_t slot = free_slots.back();
          free_slots.pop_back();
          sim_map.emplace(v, slot);
          plan.initial_fill.emplace_back(v, slot);
          // Register in the heap at the first-use key so the node is an
          // eviction candidate even before that use happens.
          heap.push({static_cast<std::uint32_t>(k), v});
          heap_key[v] = static_cast<std::uint32_t>(k);
        }
      }

      // A batch member must survive until its batch trains. Keys for batch
      // members are refreshed only AFTER the batch's misses are placed, so
      // during the batch a member either carries a stale past key (the
      // least attractive entry in the max-heap) or — when freshly loaded —
      // no heap entry at all; in-batch eviction of needed nodes cannot
      // happen in practice. The protected-set guard remains as a
      // correctness backstop for degenerate cache sizes.
      std::unordered_set<NodeId> protected_now;
      std::vector<HeapEntry> deferred;
      for (std::size_t k = 0; k < sb_count; ++k) {
        const auto now = static_cast<std::uint32_t>(k);
        protected_now.clear();
        protected_now.insert(node_lists[k].begin(), node_lists[k].end());
        for (NodeId v : node_lists[k]) {
          if (sim_map.count(v) != 0) continue;  // hit: keyed after batch
          // Miss: evict the cached node with the farthest next use,
          // skipping stale heap entries and current-batch nodes.
          std::uint32_t slot;
          if (!free_slots.empty()) {
            slot = free_slots.back();
            free_slots.pop_back();
          } else {
            NodeId victim = 0;
            deferred.clear();
            for (;;) {
              GD_CHECK_MSG(!heap.empty(), "belady heap exhausted");
              auto [key, cand] = heap.top();
              heap.pop();
              auto hit = heap_key.find(cand);
              if (hit == heap_key.end() || hit->second != key) continue;
              if (sim_map.count(cand) == 0) continue;
              if (protected_now.count(cand) != 0) {
                deferred.push_back({key, cand});
                continue;
              }
              victim = cand;
              break;
            }
            for (const auto& entry : deferred) heap.push(entry);
            slot = sim_map[victim];
            sim_map.erase(victim);
            heap_key.erase(victim);
            plan.evictions[k].push_back(victim);
          }
          sim_map.emplace(v, slot);
          plan.loads[k].emplace_back(v, slot);
        }
        // Refresh keys for every batch member (hits and fresh loads).
        for (NodeId v : node_lists[k]) {
          const std::uint32_t nu = next_use_after(v, now);
          heap.push({nu, v});
          heap_key[v] = nu;
        }
      }
      stats.extract_seconds += to_seconds(Clock::now() - t0);
      GD_LOG_INFO("ginex inspect: %.3fs (readback %.3fs, %zu initial fill)",
                  to_seconds(Clock::now() - t0),
                  to_seconds(t_belady - t0), plan.initial_fill.size());
    }

    // ---- Phase 3: synchronous feature-cache initialization.
    {
      const TimePoint t0 = Clock::now();
      cache_map.clear();
      load_rows_into_cache(*ctx_.ssd, ctx_.telemetry, ds.layout(),
                           plan.initial_fill, /*depth=*/64, dim,
                           cache_storage_.data());
      for (const auto& [node, slot] : plan.initial_fill) {
        cache_map[node] = slot;
      }
      stats.extract_seconds += to_seconds(Clock::now() - t0);
      GD_LOG_INFO("ginex cache init: %.3fs", to_seconds(Clock::now() - t0));
    }

    // ---- Phase 4: train the superbatch.
    for (std::size_t k = 0; k < sb_count; ++k) {
      // Read the stored sampling result back from SSD.
      TimePoint t0 = Clock::now();
      std::vector<std::uint8_t> ser(spill_len[k]);
      bulk_io(*ctx_.ssd, ctx_.telemetry, /*write=*/false, spill_offset[k],
              ser.data(), spill_len[k], /*depth=*/16);
      SampledBatch batch = deserialize_batch(ser.data());

      // Apply the Belady plan: evictions then miss loads (synchronous,
      // multi-threaded-read-equivalent depth).
      for (NodeId v : plan.evictions[k]) cache_map.erase(v);
      load_rows_into_cache(*ctx_.ssd, ctx_.telemetry, ds.layout(),
                           plan.loads[k], config_.miss_ring_depth, dim,
                           cache_storage_.data());
      for (const auto& [node, slot] : plan.loads[k]) cache_map[node] = slot;

      // Gather the batch tensor from the feature cache.
      Tensor x0(static_cast<std::uint32_t>(batch.num_nodes()), dim);
      PinnedBytes batch_pin(*ctx_.host_mem, x0.bytes(), "ginex-batch-tensor");
      {
        BusyScope busy(ctx_.telemetry);
        for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
          auto it = cache_map.find(batch.nodes[i]);
          GD_CHECK_MSG(it != cache_map.end(), "belady plan missed a node");
          std::memcpy(x0.row(i),
                      cache_storage_.data() +
                          static_cast<std::size_t>(it->second) * dim,
                      row_bytes);
        }
      }
      stats.extract_seconds += to_seconds(Clock::now() - t0);

      // Transfer + train.
      t0 = Clock::now();
      const TrainStats tr = trainer_->step(batch, x0);
      stats.train_seconds += to_seconds(Clock::now() - t0);
      stats.loss += tr.loss;
      stats.train_accuracy +=
          tr.total > 0
              ? static_cast<double>(tr.correct) / static_cast<double>(tr.total)
              : 0.0;
    }
  }

  stats.epoch_seconds = to_seconds(Clock::now() - t_epoch);
  if (n_batches > 0) {
    stats.loss /= static_cast<double>(n_batches);
    stats.train_accuracy /= static_cast<double>(n_batches);
  }
  return stats;
}

double Ginex::evaluate() {
  return evaluate_accuracy(trainer_->model(), *ctx_.dataset,
                           config_.common.sampler);
}

}  // namespace gnndrive
