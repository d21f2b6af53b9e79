#include "layout/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <vector>

#include "cache/policy.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace gnndrive {

namespace {

/// Rows gathered per staging chunk in pass A. 4096 rows x 512 B (papers
/// dim-128 rows) is a 2 MiB host buffer — big enough to amortize, small
/// enough for toy tests.
constexpr std::uint64_t kChunkRows = 4096;
/// Sequential copy-back granularity in pass B.
constexpr std::uint64_t kCopyChunkBytes = 4ull << 20;

}  // namespace

LayoutPlan plan_identity_layout(const Dataset& dataset) {
  return make_identity_plan(dataset.spec().num_nodes, dataset.spec().seed);
}

LayoutPlan plan_degree_layout(const Dataset& dataset) {
  const NodeId n = dataset.spec().num_nodes;
  LayoutPlan plan;
  plan.strategy = LayoutStrategy::kDegree;
  plan.num_nodes = n;
  plan.dataset_seed = dataset.spec().seed;
  plan.inv.resize(n);
  std::iota(plan.inv.begin(), plan.inv.end(), NodeId{0});
  // Ties broken by ascending id so the ordering — and the plan fingerprint —
  // is fully deterministic.
  std::sort(plan.inv.begin(), plan.inv.end(), [&](NodeId a, NodeId b) {
    const std::uint64_t da = dataset.in_degree(a);
    const std::uint64_t db = dataset.in_degree(b);
    if (da != db) return da > db;
    return a < b;
  });
  plan.perm = invert_permutation(plan.inv);
  GD_CHECK(plan.validate());
  return plan;
}

LayoutPlan plan_hotness_layout(const Dataset& dataset, PageCache& page_cache,
                               const HotnessProfileConfig& profile) {
  const NodeId n = dataset.spec().num_nodes;
  // max_hot = num_nodes turns the hot-set selection into a full frequency
  // ordering of every node the profile touched (freq desc, ties id asc).
  PresampleResult res = presample_hot_set(
      dataset, page_cache, profile.sampler, profile.batch_seeds,
      profile.profile_seed, profile.presample_batches, n);

  LayoutPlan plan;
  plan.strategy = LayoutStrategy::kHotness;
  plan.num_nodes = n;
  plan.dataset_seed = dataset.spec().seed;
  plan.profile_seed = profile.profile_seed;
  plan.inv = std::move(res.hot_nodes);
  const std::size_t accessed_count = plan.inv.size();
  plan.inv.reserve(n);
  // Never-accessed nodes fill the cold tail in ascending id order: they
  // contribute no reads, so any deterministic order works, and id order
  // keeps the tail locality of the shipped layout.
  std::vector<bool> accessed(n, false);
  for (NodeId v : plan.inv) accessed[v] = true;
  for (NodeId v = 0; v < n; ++v) {
    if (!accessed[v]) plan.inv.push_back(v);
  }
  plan.perm = invert_permutation(plan.inv);
  GD_CHECK(plan.validate());
  GD_LOG_INFO(
      "layout: hotness profile over %u batches touched %zu/%u nodes",
      res.batches_profiled, accessed_count, n);
  return plan;
}

LayoutCompileStats compile_layout(Dataset& dataset,
                                  std::shared_ptr<const LayoutPlan> plan,
                                  Telemetry* telemetry) {
  const DatasetSpec& spec = dataset.spec();
  const OnDiskLayout& lay = dataset.layout();
  const std::uint64_t row_bytes = lay.feature_row_bytes;
  const NodeId n = spec.num_nodes;

  if (plan != nullptr) {
    GD_CHECK_MSG(plan->num_nodes == n,
                 "compile_layout: plan built for a different node count");
    GD_CHECK_MSG(plan->validate(), "compile_layout: invalid plan");
  }

  LayoutCompileStats stats;
  stats.rows = n;

  const std::uint64_t target_fp =
      plan != nullptr ? plan->fingerprint() : 0;
  if (target_fp == lay.layout_fingerprint()) {
    // Already in the requested physical order (content hash matches);
    // still (re)install so plan metadata like profile_seed is current.
    dataset.set_layout_plan(std::move(plan));
    return stats;
  }

  const auto t0 = Clock::now();
  MemBackend& img = *dataset.image();
  GD_CHECK_MSG(lay.scratch_bytes >= lay.features_bytes,
               "scratch region too small to stage the feature region");

  // The rewrite composes with the currently-installed plan: dest physical
  // row r must hold node inv_new[r], whose bytes currently live at physical
  // row old_perm[node]. Doing it through old_perm (not assuming identity)
  // is what makes recompiling degree -> hotness -> identity round-trip.
  const NodeId* old_perm = lay.row_perm;  // null == identity
  const bool new_identity = plan == nullptr || plan->is_identity();

  // Pass A: permuted gather into the scratch region, chunked.
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(std::min<std::uint64_t>(kChunkRows, n) *
                               row_bytes));
  std::uint64_t next_progress = n / 10 + 1;
  for (std::uint64_t r0 = 0; r0 < n; r0 += kChunkRows) {
    const std::uint64_t r1 = std::min<std::uint64_t>(r0 + kChunkRows, n);
    for (std::uint64_t r = r0; r < r1; ++r) {
      const NodeId node =
          new_identity ? static_cast<NodeId>(r) : plan->inv[r];
      const std::uint64_t src_row =
          old_perm != nullptr ? old_perm[node] : node;
      if (src_row != r) {
        ++stats.rows_moved;
        stats.bytes_moved += row_bytes;
      }
      GD_CHECK(img.read(lay.feature_offset_of_row(src_row),
                        static_cast<std::uint32_t>(row_bytes),
                        buf.data() + (r - r0) * row_bytes) == 0);
    }
    GD_CHECK(img.write(lay.scratch_offset + r0 * row_bytes,
                       static_cast<std::uint32_t>((r1 - r0) * row_bytes),
                       buf.data()) == 0);
    if (r1 >= next_progress) {
      GD_LOG_INFO("layout: compile %s gather %3.0f%% (%llu/%u rows)",
                  plan != nullptr ? layout_strategy_name(plan->strategy)
                                  : "identity",
                  100.0 * static_cast<double>(r1) / static_cast<double>(n),
                  static_cast<unsigned long long>(r1), n);
      next_progress += n / 10 + 1;
    }
  }

  // Pass B: one sequential sweep copying scratch back over the feature
  // region.
  buf.resize(static_cast<std::size_t>(
      std::min<std::uint64_t>(kCopyChunkBytes, lay.features_bytes)));
  for (std::uint64_t off = 0; off < lay.features_bytes;
       off += kCopyChunkBytes) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kCopyChunkBytes, lay.features_bytes - off));
    GD_CHECK(img.read(lay.scratch_offset + off, len, buf.data()) == 0);
    GD_CHECK(img.write(lay.features_offset + off, len, buf.data()) == 0);
  }

  stats.elapsed_ms = to_ms(Clock::now() - t0);
  const LayoutStrategy strategy =
      plan != nullptr ? plan->strategy : LayoutStrategy::kIdentity;
  dataset.set_layout_plan(std::move(plan));

  if (telemetry != nullptr) {
    MetricsRegistry& reg = *telemetry->metrics();
    reg.counter("layout.compile.rows").add(stats.rows);
    reg.counter("layout.compile.rows_moved").add(stats.rows_moved);
    reg.counter("layout.compile.bytes_moved").add(stats.bytes_moved);
    reg.histogram("layout.compile.us").add_us(stats.elapsed_ms * 1000.0);
    reg.gauge("layout.strategy").set(static_cast<std::int64_t>(strategy));
    reg.gauge("layout.fingerprint")
        .set(static_cast<std::int64_t>(dataset.layout().layout_fingerprint()));
  }
  GD_LOG_INFO(
      "layout: compiled %s in %.1f ms — %llu/%llu rows moved (%.1f MiB)",
      layout_strategy_name(strategy), stats.elapsed_ms,
      static_cast<unsigned long long>(stats.rows_moved),
      static_cast<unsigned long long>(stats.rows),
      static_cast<double>(stats.bytes_moved) / (1 << 20));
  return stats;
}

}  // namespace gnndrive
