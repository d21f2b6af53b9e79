#include "cache/policy.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "aio/io_ring.hpp"
#include "memsim/page_cache.hpp"
#include "sampling/topology.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace gnndrive {

namespace {

/// Profiling batch ids live far above training ((epoch+1)<<24 | b) and
/// serving (1<<48 | seq) so the sampler's per-batch RNG streams never
/// collide with either.
constexpr std::uint64_t kPresampleBatchBase = 1ull << 52;
/// Dedicated shuffle-seed salt: the profiled batch order is deterministic
/// per run_seed but distinct from every epoch shuffle
/// (splitmix64(run_seed ^ (epoch+1))).
constexpr std::uint64_t kPresampleShuffleSalt = 0x70726553616d7065ULL;

bool transient_error(std::int32_t res) {
  return res == -EIO || res == -ETIMEDOUT;
}

}  // namespace

const char* cache_policy_name(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kHotness:
      return "hotness";
  }
  return "?";
}

void validate_cache_config(const CachePolicyConfig& config) {
  if (!(config.hot_fraction >= 0.0 && config.hot_fraction <= 1.0)) {
    throw std::invalid_argument(
        "CachePolicyConfig: hot_fraction must lie in [0, 1], got " +
        std::to_string(config.hot_fraction));
  }
  if (config.policy == CachePolicy::kHotness &&
      config.presample_batches == 0) {
    throw std::invalid_argument(
        "CachePolicyConfig: the hotness policy needs presample_batches > 0 "
        "to estimate access frequencies");
  }
}

PresampleResult presample_hot_set(const Dataset& dataset,
                                  PageCache& page_cache,
                                  const SamplerConfig& sampler_config,
                                  std::uint32_t batch_seeds,
                                  std::uint64_t run_seed,
                                  std::uint32_t num_batches,
                                  std::uint64_t max_hot) {
  PresampleResult result;
  if (num_batches == 0 || max_hot == 0) return result;

  NeighborSampler sampler(sampler_config);
  MmapTopology topo(dataset, page_cache);
  const auto batches =
      make_minibatches(dataset.train_nodes(), batch_seeds,
                       splitmix64(run_seed ^ kPresampleShuffleSalt));
  const std::uint32_t to_profile = static_cast<std::uint32_t>(
      std::min<std::size_t>(num_batches, batches.size()));

  std::vector<std::uint32_t> freq(dataset.spec().num_nodes, 0);
  for (std::uint32_t b = 0; b < to_profile; ++b) {
    const SampledBatch batch =
        sampler.sample(kPresampleBatchBase | b, batches[b], topo, nullptr);
    for (NodeId v : batch.nodes) {
      ++freq[v];
      ++result.accesses;
    }
  }
  result.batches_profiled = to_profile;

  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < freq.size(); ++v) {
    if (freq[v] > 0) candidates.push_back(v);
  }
  const std::size_t k =
      std::min<std::size_t>(max_hot, candidates.size());
  const auto hotter = [&](NodeId a, NodeId b) {
    return freq[a] != freq[b] ? freq[a] > freq[b] : a < b;
  };
  std::partial_sort(candidates.begin(), candidates.begin() + k,
                    candidates.end(), hotter);
  candidates.resize(k);
  result.hot_nodes = std::move(candidates);
  for (NodeId v : result.hot_nodes) result.hot_accesses += freq[v];
  return result;
}

HotPrefetchStats prefetch_hot_rows(FeatureBuffer& fb,
                                   const std::vector<NodeId>& hot_nodes,
                                   const Dataset& dataset, SsdDevice& ssd,
                                   const CoalesceConfig& coalesce,
                                   Telemetry* telemetry) {
  HotPrefetchStats stats;
  if (hot_nodes.empty()) return stats;

  const std::vector<SlotId> slots = fb.pin_hot(hot_nodes);

  const OnDiskLayout& lay = dataset.layout();
  const auto row_bytes = static_cast<std::uint32_t>(lay.feature_row_bytes);
  const std::uint32_t covering = covering_row_bytes(row_bytes, kSectorSize);
  // Packed store (src/layout): a hotness/degree-compiled image places the
  // profiled hot set in one dense physical run, so the extraction-tuned
  // per-segment caps would only chop a single long run into hundreds of
  // 24 KiB reads. Widen to ~1 MiB segments with no row cap — the whole
  // prefetch becomes a handful of sequential reads. The identity path is
  // byte-for-byte the planner the extractors use.
  const bool packed = lay.row_perm != nullptr && coalesce.enabled;
  const std::uint32_t staging_row_bytes =
      packed ? std::max<std::uint32_t>(1u << 20, covering)
             : staging_row_bytes_for(coalesce, covering);
  const std::uint32_t max_rows =
      !coalesce.enabled ? 1
      : packed          ? std::numeric_limits<std::uint32_t>::max()
                        : coalesce.max_rows_per_read;
  const std::uint32_t max_gap = coalesce.enabled ? coalesce.max_gap_bytes : 0;

  std::vector<std::uint32_t> load_idx(hot_nodes.size());
  for (std::uint32_t i = 0; i < load_idx.size(); ++i) load_idx[i] = i;
  const SegmentPlan plan = plan_segments(load_idx, hot_nodes, lay, row_bytes,
                                         staging_row_bytes, max_rows, max_gap);
  const std::size_t n_seg = plan.segments.size();

  // One-shot windowed read loop: far simpler than extract_load_set because
  // slots are pre-pinned (no allocation, no cross-batch waiters) and a
  // permanent failure aborts the whole prefetch instead of degrading it.
  // With ~1 MiB packed segments a deep staging pool would cost 32 MiB of
  // host buffer for a prefetch that is a few reads total; 8 windows keep
  // the device busy.
  const std::uint32_t kStagingRows = packed ? 8 : 32;
  constexpr std::uint32_t kMaxAttempts = 3;
  IoRingConfig ring_cfg;
  ring_cfg.queue_depth = kStagingRows;
  ring_cfg.direct = true;
  ring_cfg.max_transfer_bytes = staging_row_bytes;
  IoRing ring(ssd, ring_cfg, nullptr, telemetry);
  std::vector<std::uint8_t> staging(
      static_cast<std::size_t>(kStagingRows) * staging_row_bytes);

  std::vector<std::uint32_t> free_rows;
  for (std::uint32_t r = 0; r < kStagingRows; ++r) free_rows.push_back(r);
  std::vector<std::uint32_t> row_of(n_seg, 0);
  std::vector<std::uint32_t> attempts(n_seg, 0);
  std::size_t submitted = 0;
  std::size_t resolved = 0;

  const auto submit_segment = [&](std::size_t s) {
    const SegmentPlan::Segment& seg = plan.segments[s];
    std::uint8_t* dst =
        staging.data() +
        static_cast<std::uint64_t>(row_of[s]) * staging_row_bytes;
    GD_CHECK(ring.prep_read(seg.base, seg.len, dst, s));
    ring.submit();
  };

  while (resolved < n_seg) {
    while (submitted < n_seg && !free_rows.empty()) {
      const std::size_t s = submitted++;
      row_of[s] = free_rows.back();
      free_rows.pop_back();
      ++attempts[s];
      ++stats.reads;
      stats.rows += plan.segments[s].num_rows;
      stats.bytes += plan.segments[s].len;
      submit_segment(s);
    }
    const auto cqe = ring.wait_cqe_for(std::chrono::milliseconds(100));
    if (!cqe.has_value()) {
      // A stalled device turns into -ETIMEDOUT completions we retry below.
      ring.cancel_expired(std::chrono::seconds(2));
      continue;
    }
    const std::size_t s = cqe->user_data;
    const SegmentPlan::Segment& seg = plan.segments[s];
    if (cqe->res < 0) {
      if (transient_error(cqe->res) && attempts[s] < kMaxAttempts) {
        ++attempts[s];
        submit_segment(s);  // keeps its staging row
        continue;
      }
      GD_LOG_WARN("hot_prefetch_failed res=%d segment=%zu attempts=%u",
                  cqe->res, s, attempts[s]);
      throw std::runtime_error(
          "hot-partition prefetch failed permanently (res=" +
          std::to_string(cqe->res) + ")");
    }
    const std::uint8_t* src =
        staging.data() +
        static_cast<std::uint64_t>(row_of[s]) * staging_row_bytes;
    for (std::uint32_t r = seg.first_row; r < seg.first_row + seg.num_rows;
         ++r) {
      const std::uint32_t pos = plan.rows[r].load_pos;
      std::memcpy(fb.slot_data(slots[pos]), src + plan.rows[r].seg_offset,
                  row_bytes);
      fb.mark_valid(hot_nodes[pos]);
    }
    free_rows.push_back(row_of[s]);
    ++resolved;
  }

  fb.seal_hot();
  return stats;
}

}  // namespace gnndrive
