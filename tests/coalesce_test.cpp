// Coalesced extraction fast path (core/extract.hpp): planner properties,
// differential byte-identity between coalesce=on and the per-node baseline
// (training and serving paths), batched feature-buffer APIs, and per-segment
// failure granularity under injected faults, and the staging arena's byte
// allocator. The extraction tests run both memory targets: a host staging
// arena and a device arena under GPUDirect Storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/extract.hpp"
#include "core/pipeline.hpp"
#include "gpu/gpu.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

OnDiskLayout fake_layout(std::uint32_t row_bytes, std::uint64_t num_nodes) {
  OnDiskLayout lay;
  lay.features_offset = 1 << 20;  // sector-aligned, like Dataset layouts
  lay.feature_row_bytes = row_bytes;
  lay.features_bytes = num_nodes * row_bytes;
  lay.total_bytes = lay.features_offset + lay.features_bytes;
  return lay;
}

// -- plan_segments: pure planner properties ---------------------------------

void check_plan_invariants(const SegmentPlan& plan,
                           const std::vector<std::uint32_t>& load_idx,
                           const std::vector<NodeId>& nodes,
                           const OnDiskLayout& lay, std::uint32_t row_bytes,
                           std::uint32_t max_bytes, std::uint32_t max_rows) {
  ASSERT_EQ(plan.rows.size(), load_idx.size());
  // Every load position appears exactly once across all segments.
  std::vector<std::uint32_t> seen(load_idx.size(), 0);
  std::size_t covered = 0;
  for (const auto& seg : plan.segments) {
    ASSERT_GE(seg.num_rows, 1u);
    ASSERT_LE(seg.num_rows, max_rows);
    ASSERT_EQ(seg.base % kSectorSize, 0u);
    ASSERT_EQ(seg.len % kSectorSize, 0u);
    ASSERT_LE(seg.len, max_bytes);
    ASSERT_EQ(seg.first_row, covered);
    covered += seg.num_rows;
    std::uint32_t prev_off = 0;
    for (std::uint32_t r = seg.first_row; r < seg.first_row + seg.num_rows;
         ++r) {
      const auto& row = plan.rows[r];
      ASSERT_LT(row.load_pos, load_idx.size());
      ++seen[row.load_pos];
      // The row's bytes lie inside its segment at the node's disk offset.
      const NodeId node = nodes[load_idx[row.load_pos]];
      ASSERT_EQ(seg.base + row.seg_offset, lay.feature_offset_of(node));
      ASSERT_LE(row.seg_offset + row_bytes, seg.len);
      if (r > seg.first_row) {
        ASSERT_GE(row.seg_offset, prev_off);
      }
      prev_off = row.seg_offset;
    }
  }
  ASSERT_EQ(covered, plan.rows.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], 1u) << "load position " << i;
  }
}

TEST(CoalescePlanner, RandomLayoutsSatisfyInvariants) {
  std::mt19937 rng(20260805);
  for (const std::uint32_t dim : {16u, 33u, 96u, 128u, 200u}) {
    const std::uint32_t row_bytes = dim * 4;
    const OnDiskLayout lay = fake_layout(row_bytes, 100000);
    for (int trial = 0; trial < 20; ++trial) {
      CoalesceConfig co;
      co.max_coalesce_bytes = 1u << (11 + rng() % 5);  // 2K..32K
      co.max_rows_per_read = 1 + rng() % 48;
      co.max_gap_bytes = (rng() % 4) * 2048;
      const std::uint32_t max_bytes =
          staging_row_bytes_for(co, covering_row_bytes(row_bytes, kSectorSize));
      std::vector<NodeId> nodes(1 + rng() % 400);
      for (auto& v : nodes) v = rng() % 100000;
      std::vector<std::uint32_t> load_idx(nodes.size());
      for (std::uint32_t i = 0; i < load_idx.size(); ++i) load_idx[i] = i;
      const SegmentPlan plan =
          plan_segments(load_idx, nodes, lay, row_bytes, max_bytes,
                        co.max_rows_per_read, co.max_gap_bytes);
      check_plan_invariants(plan, load_idx, nodes, lay, row_bytes, max_bytes,
                            co.max_rows_per_read);
    }
  }
}

TEST(CoalescePlanner, SingleRowCapDegeneratesToPerNodeReads) {
  const std::uint32_t row_bytes = 128 * 4;
  const OnDiskLayout lay = fake_layout(row_bytes, 5000);
  std::vector<NodeId> nodes = {10, 11, 12, 13, 999, 1000};
  std::vector<std::uint32_t> load_idx = {0, 1, 2, 3, 4, 5};
  const SegmentPlan plan =
      plan_segments(load_idx, nodes, lay, row_bytes,
                    covering_row_bytes(row_bytes, kSectorSize), 1, 0);
  ASSERT_EQ(plan.segments.size(), nodes.size());
  for (const auto& seg : plan.segments) EXPECT_EQ(seg.num_rows, 1u);
}

TEST(CoalescePlanner, AdjacentRowsMergeUpToTheCaps) {
  // 64 consecutive 512 B rows under a 16 KiB / 32-row cap: exactly two
  // 32-row segments.
  const std::uint32_t row_bytes = 512;
  const OnDiskLayout lay = fake_layout(row_bytes, 5000);
  std::vector<NodeId> nodes(64);
  std::vector<std::uint32_t> load_idx(64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    nodes[i] = 100 + i;
    load_idx[i] = i;
  }
  const SegmentPlan plan =
      plan_segments(load_idx, nodes, lay, row_bytes, 16 * 1024, 32, 0);
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_EQ(plan.segments[0].num_rows, 32u);
  EXPECT_EQ(plan.segments[1].num_rows, 32u);
  EXPECT_EQ(plan.segments[0].len, 16u * 1024u);
}

TEST(CoalescePlanner, GapToleranceBridgesSmallHolesOnly) {
  const std::uint32_t row_bytes = 512;
  const OnDiskLayout lay = fake_layout(row_bytes, 5000);
  // Rows 0 and 4: a 3-row (1536 B) hole between their covering ranges.
  std::vector<NodeId> nodes = {0, 4};
  std::vector<std::uint32_t> load_idx = {0, 1};
  const SegmentPlan strict =
      plan_segments(load_idx, nodes, lay, row_bytes, 16 * 1024, 32, 0);
  EXPECT_EQ(strict.segments.size(), 2u);
  const SegmentPlan bridged =
      plan_segments(load_idx, nodes, lay, row_bytes, 16 * 1024, 32, 2048);
  ASSERT_EQ(bridged.segments.size(), 1u);
  EXPECT_EQ(bridged.segments[0].num_rows, 2u);
  // The merged read covers both rows including the hole.
  EXPECT_EQ(bridged.segments[0].len, 5u * 512u);
}

TEST(CoalescePlanner, DuplicateOffsetsShareASegment) {
  // The same node listed twice (serve micro-batches after coalescing
  // requests for one hot vertex): both rows land in one segment at the
  // same seg_offset.
  const std::uint32_t row_bytes = 512;
  const OnDiskLayout lay = fake_layout(row_bytes, 5000);
  std::vector<NodeId> nodes = {7, 7, 7};
  std::vector<std::uint32_t> load_idx = {0, 1, 2};
  const SegmentPlan plan =
      plan_segments(load_idx, nodes, lay, row_bytes, 16 * 1024, 32, 0);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].num_rows, 3u);
  for (const auto& row : plan.rows) EXPECT_EQ(row.seg_offset, 0u);
}

// -- Differential extraction harness ----------------------------------------

// Where extraction stages its reads: a host arena scattered by memcpy, or
// a device arena under GPUDirect Storage (4 KiB reads, on-device copies).
enum class Target { kStaging, kGds };
constexpr Target kTargets[] = {Target::kStaging, Target::kGds};

const char* target_name(Target target) {
  return target == Target::kGds ? "target=gds" : "target=staging";
}

std::uint32_t read_align(Target target) {
  return target == Target::kGds ? kPageSize : kSectorSize;
}

// Bytes of one `align`-aligned read per node: the uncoalesced I/O shape.
std::uint64_t per_row_read_bytes(const OnDiskLayout& lay,
                                 const std::vector<NodeId>& nodes,
                                 std::uint32_t align) {
  std::uint64_t bytes = 0;
  for (const NodeId v : nodes) {
    const std::uint64_t off = lay.feature_offset_of(v);
    bytes += round_up(off + lay.feature_row_bytes, align) -
             round_down(off, align);
  }
  return bytes;
}

// Stand-alone Algorithm-1 run over an explicit node list: triage ->
// extract_load_set -> resolve_wait_list -> copy out -> release. Mirrors how
// GnnDrive::extract_batch and ServeEngine::extract_batch drive the shared
// core, minus the surrounding pipeline.
struct GatherResult {
  bool ok = false;
  ExtractCounters counters;
  /// nodes.size() x dim; when the batch failed, only rows that loaded.
  std::vector<float> data;
  std::vector<NodeId> failed;  ///< to-load nodes marked failed
  std::uint64_t ssd_reads = 0;
  std::uint64_t ssd_bytes = 0;
};

GatherResult gather(Dataset& ds, Target target, const CoalesceConfig& co,
                    const std::vector<NodeId>& nodes,
                    const SsdFaultConfig* faults = nullptr,
                    std::uint32_t max_retries = 3,
                    double request_timeout_ms = 250.0,
                    Telemetry* telemetry = nullptr,
                    const ExtractMetricHooks& hooks = {},
                    std::uint32_t ring_depth = 64) {
  SsdConfig ssd_cfg;
  ssd_cfg.read_latency_us = 20.0;
  auto ssd = ds.make_device(ssd_cfg);
  if (faults != nullptr) ssd->set_fault_config(*faults);

  const auto dim = ds.spec().feature_dim;
  const auto row_bytes =
      static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
  FeatureBuffer fb(FeatureBufferConfig{nodes.size() + 64, dim},
                   ds.spec().num_nodes, telemetry);
  std::unique_ptr<GpuDevice> gpu;
  if (target == Target::kGds) gpu = std::make_unique<GpuDevice>(GpuConfig{});

  // Sized as the pipeline sizes each extractor's arena.
  const std::uint32_t staging_row_bytes = staging_row_bytes_for(
      co, covering_row_bytes(row_bytes, read_align(target)));
  const std::uint32_t staging_rows = staging_rows_for(co, ring_depth);
  std::vector<std::uint8_t> staging(
      staging_arena_bytes(staging_rows, staging_row_bytes));

  IoRingConfig rc;
  rc.queue_depth = ring_depth;
  rc.direct = true;
  rc.max_transfer_bytes = staging_row_bytes;
  IoRing ring(*ssd, rc, nullptr, telemetry);

  SampledBatch batch;
  batch.batch_id = 1;
  batch.nodes = nodes;
  batch.alias.assign(nodes.size(), kNoSlot);

  std::vector<std::uint32_t> wait_idx, load_idx;
  triage_batch(fb, batch, wait_idx, load_idx);

  ExtractEnv env;
  env.fb = &fb;
  env.layout = &ds.layout();
  env.row_bytes = row_bytes;
  env.ring = &ring;
  env.staging_base = staging.data();
  env.staging_row_bytes = staging_row_bytes;
  env.staging_rows = staging_rows;
  env.gpu = gpu.get();
  env.telemetry = telemetry;
  env.gds = target == Target::kGds;

  ExtractPolicy policy;
  policy.coalesce = co;
  policy.max_retries = max_retries;
  policy.request_timeout = from_us(request_timeout_ms * 1e3);
  policy.poll = from_us(5000.0);

  GatherResult out;
  out.ok = extract_load_set(batch, load_idx, env, policy, hooks, out.counters,
                            nullptr);
  if (out.ok) {
    out.ok = resolve_wait_list(fb, batch, wait_idx, from_us(10e6));
  }
  if (out.ok) {
    out.data.resize(nodes.size() * static_cast<std::size_t>(dim));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_NE(batch.alias[i], kNoSlot) << "node " << nodes[i];
      if (batch.alias[i] == kNoSlot) continue;
      std::memcpy(out.data.data() + i * dim, fb.slot_data(batch.alias[i]),
                  static_cast<std::size_t>(dim) * sizeof(float));
    }
  } else {
    // Failure contract: every to-load node resolved (valid or failed) so
    // cross-batch waiters never hang.
    out.data.assign(nodes.size() * static_cast<std::size_t>(dim), 0.0f);
    for (const auto pos : load_idx) {
      const auto e = fb.entry(batch.nodes[pos]);
      EXPECT_TRUE(e.valid || e.failed) << "node " << batch.nodes[pos];
      if (e.failed) out.failed.push_back(batch.nodes[pos]);
      if (!e.valid) continue;
      std::memcpy(out.data.data() + pos * dim, fb.slot_data(batch.alias[pos]),
                  static_cast<std::size_t>(dim) * sizeof(float));
    }
  }

  fb.release(batch.nodes);
  // No slot or staging leaks, success or not: all references returned, the
  // whole standby list intact, no staged-but-lost ring entries.
  for (NodeId v = 0; v < ds.spec().num_nodes; ++v) {
    EXPECT_EQ(fb.entry(v).ref_count, 0u) << "leaked ref on node " << v;
  }
  EXPECT_EQ(fb.standby_size(), fb.num_slots());
  EXPECT_EQ(ring.in_flight(), 0u);
  if (hooks.staging_in_use != nullptr) {
    EXPECT_EQ(hooks.staging_in_use->value(), 0) << "staging bytes leaked";
  }
  out.ssd_reads = ssd->stats().reads;
  out.ssd_bytes = ssd->stats().bytes_read;
  return out;
}

std::vector<float> ground_truth(Dataset& ds,
                                const std::vector<NodeId>& nodes) {
  const auto dim = ds.spec().feature_dim;
  std::vector<float> truth(nodes.size() * static_cast<std::size_t>(dim));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ds.read_feature_row(nodes[i], truth.data() + i * dim);
  }
  return truth;
}

TEST(CoalesceDifferential, ByteIdenticalAcrossDimsAndLayouts) {
  // The property the A/B benchmark rests on: coalesce=on gathers exactly
  // the bytes of the per-node baseline, for sector-multiple rows (128),
  // sector-straddling rows (33, 96) and sub-sector rows (16).
  std::mt19937 rng(7);
  for (const std::uint32_t dim : {16u, 33u, 96u, 128u}) {
    Dataset ds = Dataset::build(toy_spec(dim));
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<NodeId> nodes(200);
      for (auto& v : nodes) v = rng() % ds.spec().num_nodes;
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      std::shuffle(nodes.begin(), nodes.end(), rng);

      CoalesceConfig on;
      on.max_coalesce_bytes = 4096u << (rng() % 3);
      on.max_gap_bytes = (rng() % 3) * 4096;
      CoalesceConfig off;
      off.enabled = false;

      const std::vector<float> truth = ground_truth(ds, nodes);
      for (const Target target : kTargets) {
        SCOPED_TRACE(target_name(target));
        const GatherResult a = gather(ds, target, on, nodes);
        const GatherResult b = gather(ds, target, off, nodes);
        ASSERT_TRUE(a.ok);
        ASSERT_TRUE(b.ok);
        ASSERT_EQ(a.data.size(), truth.size());
        EXPECT_EQ(std::memcmp(a.data.data(), b.data.data(),
                              a.data.size() * sizeof(float)),
                  0)
            << "dim " << dim;
        EXPECT_EQ(std::memcmp(a.data.data(), truth.data(),
                              a.data.size() * sizeof(float)),
                  0)
            << "dim " << dim;
        // The baseline reads once per node at the target's alignment;
        // coalescing must not read more.
        EXPECT_EQ(b.counters.segments, nodes.size());
        EXPECT_EQ(b.ssd_reads, nodes.size());
        EXPECT_EQ(b.ssd_bytes,
                  per_row_read_bytes(ds.layout(), nodes, read_align(target)));
        EXPECT_LE(a.counters.segments, b.counters.segments);
        EXPECT_EQ(a.counters.rows_loaded, nodes.size());
      }
    }
  }
}

TEST(CoalesceDifferential, DuplicateHeavyBatch) {
  Dataset ds = Dataset::build(toy_spec(33));
  std::mt19937 rng(11);
  // ~5x duplication: first occurrence triages kMustLoad, the rest ride the
  // wait list and resolve after the loader's own extract loop.
  std::vector<NodeId> nodes;
  for (int i = 0; i < 40; ++i) {
    const NodeId v = rng() % ds.spec().num_nodes;
    const int copies = 1 + rng() % 5;
    for (int c = 0; c < copies; ++c) nodes.push_back(v);
  }
  std::shuffle(nodes.begin(), nodes.end(), rng);

  CoalesceConfig on;
  CoalesceConfig off;
  off.enabled = false;
  const std::vector<float> truth = ground_truth(ds, nodes);
  for (const Target target : kTargets) {
    SCOPED_TRACE(target_name(target));
    const GatherResult a = gather(ds, target, on, nodes);
    const GatherResult b = gather(ds, target, off, nodes);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(std::memcmp(a.data.data(), truth.data(),
                          truth.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(b.data.data(), truth.data(),
                          truth.size() * sizeof(float)),
              0);
  }
}

TEST(CoalesceDifferential, MetricsHooksCountSegmentsAndRows) {
  Dataset ds = Dataset::build(toy_spec(128));
  std::vector<NodeId> nodes;
  for (NodeId v = 500; v < 700; ++v) nodes.push_back(v);
  CoalesceConfig on;
  for (const Target target : kTargets) {
    SCOPED_TRACE(target_name(target));
    Telemetry telemetry;
    const ExtractMetricHooks hooks = extract_metric_hooks(&telemetry);
    const GatherResult r =
        gather(ds, target, on, nodes, nullptr, 3, 250.0, &telemetry, hooks);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(hooks.segments->value(), r.counters.segments);
    EXPECT_EQ(hooks.rows->value(), r.counters.rows_loaded);
    EXPECT_EQ(hooks.rows_per_read->count(), r.counters.segments);
    EXPECT_EQ(r.counters.rows_loaded, nodes.size());
    // 200 consecutive 512 B rows under the default caps: 32-row segments.
    EXPECT_LE(r.counters.segments, div_ceil(nodes.size(), 32) + 1);
  }
}

// -- StagingArena: byte-granular staging -----------------------------------

TEST(StagingArena, RandomAllocationsNeverOverlapAndCoalesceBack) {
  for (const std::uint32_t align : {kSectorSize, kPageSize}) {
    SCOPED_TRACE("align=" + std::to_string(align));
    constexpr std::uint32_t kMaxBlocks = 24;
    StagingArena arena(64 * 1024 + 100, kMaxBlocks, align);
    EXPECT_EQ(arena.capacity() % align, 0u);
    GpuDevice gpu{GpuConfig{}};  // its DMA thread frees like H2D scatter
    std::mutex m;
    struct Block {
      std::uint64_t off;
      std::uint32_t len;
    };
    std::vector<Block> live;  // held blocks, as the test tracks them
    std::atomic<int> dma_frees{0};
    std::mt19937 rng(align);
    const std::uint8_t dma_src = 0;
    std::uint8_t dma_dst = 0;
    const auto overlaps_live = [&](std::uint64_t off, std::uint32_t len) {
      const std::uint64_t need = round_up(len, align);
      for (const Block& b : live) {
        const std::uint64_t end = b.off + round_up(b.len, align);
        if (off < end && b.off < off + need) return true;
      }
      return false;
    };
    // A block leaves `live` before its bytes go back, so everything in
    // `live` is certainly still held by the arena.
    const auto take_random = [&] {
      std::lock_guard lk(m);
      const std::size_t i = rng() % live.size();
      const Block b = live[i];
      live[i] = live.back();
      live.pop_back();
      return b;
    };
    const auto held = [&] {
      std::lock_guard lk(m);
      EXPECT_LE(live.size(), kMaxBlocks);
      return live.size();
    };
    for (int step = 0; step < 4000; ++step) {
      const auto len = static_cast<std::uint32_t>(1 + rng() % (9 * 1024));
      auto off = arena.allocate(len);
      if (!off.has_value() && held() == 0) {
        // Only releases still queued on the DMA thread hold bytes: they
        // wake the waiter, as H2D completions wake a blocked extractor.
        ASSERT_TRUE(arena.wait_fit_until(len, TimePoint::max()));
        off = arena.allocate(len);
        ASSERT_TRUE(off.has_value());
      }
      if (off.has_value()) {
        EXPECT_EQ(*off % align, 0u);
        EXPECT_LE(*off + round_up(len, align), arena.capacity());
        std::lock_guard lk(m);
        EXPECT_FALSE(overlaps_live(*off, len)) << "step " << step;
        live.push_back({*off, len});
      }
      if (held() == 0 || rng() % 3 == 0) continue;
      // Out-of-order frees: half from this thread, half from the DMA thread.
      const Block b = take_random();
      if (rng() % 2 == 0) {
        arena.release(b.off, b.len);
      } else {
        gpu.memcpy_h2d_async(&dma_dst, &dma_src, 1, [&arena, &dma_frees, b] {
          arena.release(b.off, b.len);
          ++dma_frees;
        });
      }
    }
    gpu.sync();
    while (true) {
      {
        std::lock_guard lk(m);
        if (live.empty()) break;
      }
      const Block b = take_random();
      arena.release(b.off, b.len);
    }
    EXPECT_GT(dma_frees.load(), 100);
    EXPECT_EQ(arena.free_blocks(), 1u);  // one free block again
    EXPECT_TRUE(arena.allocate(static_cast<std::uint32_t>(arena.capacity()))
                    .has_value());
  }
}

TEST(StagingArena, BlockCapAndWaitFit) {
  StagingArena arena(8 * kSectorSize, 2, kSectorSize);
  const auto a = arena.allocate(kSectorSize);
  const auto b = arena.allocate(kSectorSize);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_FALSE(arena.allocate(kSectorSize).has_value());  // block cap
  EXPECT_FALSE(arena.wait_fit_until(kSectorSize,
                                    Clock::now() + from_us(1000.0)));
  std::thread releaser([&] { arena.release(*a, kSectorSize); });
  EXPECT_TRUE(arena.wait_fit_until(kSectorSize, TimePoint::max()));
  releaser.join();
  // Freed neighbours merge: [a] and the tail join around the held [b].
  arena.release(*b, kSectorSize);
  EXPECT_EQ(arena.free_blocks(), 1u);
  EXPECT_TRUE(arena.allocate(8 * kSectorSize).has_value());
}

TEST(StagingArena, SizingIsAPagePerSlotWithinOneToDepthSegments) {
  // A page per ring slot when segments are wide...
  EXPECT_EQ(staging_arena_bytes(256, 24 * 1024), 256u * kPageSize);
  // ...never below one largest segment (a shallow ring still progresses)...
  EXPECT_EQ(staging_arena_bytes(1, 24 * 1024), 24u * 1024);
  EXPECT_EQ(staging_arena_bytes(4, 24 * 1024), 24u * 1024);
  // ...and never above ring_depth of them (per-node reads of small rows).
  EXPECT_EQ(staging_arena_bytes(256, 512), 256u * 512);
  EXPECT_EQ(staging_rows_for(CoalesceConfig{}, 256), 256u);
  EXPECT_EQ(staging_rows_for(CoalesceConfig{}, 0), 1u);
}

// -- Batched feature-buffer APIs --------------------------------------------

TEST(FeatureBufferBatchedApis, BatchTriageMatchesSequential) {
  const NodeId num_nodes = 512;
  FeatureBuffer batched(FeatureBufferConfig{64, 8}, num_nodes);
  FeatureBuffer sequential(FeatureBufferConfig{64, 8}, num_nodes);

  std::mt19937 rng(3);
  std::vector<NodeId> nodes(48);
  for (auto& v : nodes) v = rng() % 64;  // duplicates likely

  std::vector<FeatureBuffer::CheckResult> got(nodes.size());
  batched.check_and_ref_batch(nodes.data(), nodes.size(), got.data());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto want = sequential.check_and_ref(nodes[i]);
    EXPECT_EQ(static_cast<int>(got[i].status), static_cast<int>(want.status))
        << "position " << i;
    EXPECT_EQ(got[i].slot, want.slot) << "position " << i;
  }
  EXPECT_EQ(batched.stats().batch_lock_acquisitions, 1u);
  EXPECT_EQ(batched.stats().lookups(), sequential.stats().lookups());
}

TEST(FeatureBufferBatchedApis, AllocateSlotsAssignsDistinctSlots) {
  FeatureBuffer fb(FeatureBufferConfig{32, 8}, 256);
  std::vector<NodeId> nodes;
  std::vector<FeatureBuffer::CheckResult> res(16);
  for (NodeId v = 0; v < 16; ++v) nodes.push_back(v);
  fb.check_and_ref_batch(nodes.data(), nodes.size(), res.data());
  for (const auto& r : res) {
    ASSERT_EQ(static_cast<int>(r.status),
              static_cast<int>(FeatureBuffer::CheckStatus::kMustLoad));
  }
  std::vector<SlotId> slots(nodes.size(), kNoSlot);
  fb.allocate_slots(nodes.data(), nodes.size(), slots.data());
  std::vector<SlotId> sorted = slots;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_NE(sorted[i], kNoSlot);
    if (i > 0) {
      ASSERT_NE(sorted[i], sorted[i - 1]) << "slot reused";
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(fb.entry(nodes[i]).slot, slots[i]);
    EXPECT_EQ(fb.reverse(slots[i]), nodes[i]);
  }
  // One lock take per batched call so far (no slot waits needed).
  EXPECT_EQ(fb.stats().batch_lock_acquisitions, 2u);
  EXPECT_EQ(fb.stats().slot_waits, 0u);
  // release() is the third single-lock batch operation.
  for (const auto v : nodes) fb.mark_valid(v);
  fb.release(nodes);
  EXPECT_EQ(fb.stats().batch_lock_acquisitions, 3u);
  EXPECT_EQ(fb.standby_size(), fb.num_slots());
}

// -- Fault injection: per-segment failure granularity ------------------------

// io.staging_in_use counts bytes: back to 0 after the run (gather() checked
// it), with a high watermark of at least one aligned read.
void expect_staging_counted_in_bytes(const Gauge& staging, Target target) {
  EXPECT_EQ(staging.value(), 0);
  EXPECT_GE(staging.max(), static_cast<std::int64_t>(read_align(target)));
  EXPECT_EQ(staging.max() % read_align(target), 0);
}

TEST(CoalesceFaults, BadRangeFailsOnlyItsSegmentNodes) {
  Dataset ds = Dataset::build(toy_spec(128));
  const auto& lay = ds.layout();

  // Two well-separated runs of nodes; media errors pinned to the second.
  std::vector<NodeId> healthy, doomed, all;
  for (NodeId v = 100; v < 140; ++v) healthy.push_back(v);
  for (NodeId v = 2100; v < 2110; ++v) doomed.push_back(v);
  all = healthy;
  all.insert(all.end(), doomed.begin(), doomed.end());

  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back(
      {lay.feature_offset_of(doomed.front()),
       lay.feature_offset_of(doomed.back()) + lay.feature_row_bytes});

  for (const Target target : kTargets) {
    for (const bool enabled : {true, false}) {
      CoalesceConfig co;
      co.enabled = enabled;
      SCOPED_TRACE(target_name(target));
      SCOPED_TRACE(enabled ? "coalesce=on" : "coalesce=off");
      Telemetry telemetry;
      const ExtractMetricHooks hooks = extract_metric_hooks(&telemetry);
      const GatherResult r = gather(ds, target, co, all, &faults, 2, 250.0,
                                    &telemetry, hooks);
      EXPECT_FALSE(r.ok);
      EXPECT_GT(r.counters.io_errors, 0u);
      // Nodes sharing no bytes with the bad range load fine, the doomed ones
      // are marked failed (and reset at release, which gather() verified,
      // with every staging byte back).
      const GatherResult healthy_only = gather(
          ds, target, co, healthy, &faults, 3, 250.0, &telemetry, hooks);
      EXPECT_TRUE(healthy_only.ok);
      expect_staging_counted_in_bytes(*hooks.staging_in_use, target);
    }
  }
}

TEST(CoalesceFaults, FailedSegmentRereadsItsRowsSoOnlyBadRowsFail) {
  Dataset ds = Dataset::build(toy_spec(128));
  const auto& lay = ds.layout();
  // One contiguous run: coalescing merges the two bad rows in its middle
  // with their healthy neighbours into shared segments. Sixteen rows far
  // apart follow it on disk, one segment each; with a ring depth of 1 they
  // are still unsubmitted when the run's segment fails.
  std::vector<NodeId> nodes;
  for (NodeId v = 2000; v < 2040; ++v) nodes.push_back(v);
  for (NodeId v = 3000; v < 3640; v += 40) nodes.push_back(v);
  const std::vector<float> truth = ground_truth(ds, nodes);
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back({lay.feature_offset_of(2019),
                               lay.feature_offset_of(2020) +
                                   lay.feature_row_bytes});
  const auto dim = static_cast<std::size_t>(ds.spec().feature_dim);

  for (const Target target : kTargets) {
    SCOPED_TRACE(target_name(target));
    const std::uint32_t align = read_align(target);
    // A row fails when its own covering read touches the bad bytes.
    std::vector<NodeId> bad;
    for (const NodeId v : nodes) {
      const std::uint64_t off = lay.feature_offset_of(v);
      const SsdFaultConfig::Range& r = faults.bad_ranges[0];
      if (round_down(off, align) < r.end &&
          round_up(off + lay.feature_row_bytes, align) > r.begin) {
        bad.push_back(v);
      }
    }
    ASSERT_LT(bad.size(), nodes.size() / 2);
    Telemetry telemetry;
    const ExtractMetricHooks hooks = extract_metric_hooks(&telemetry);
    const GatherResult r = gather(ds, target, CoalesceConfig{}, nodes,
                                  &faults, 3, 250.0, &telemetry, hooks, 1);
    EXPECT_FALSE(r.ok);
    expect_staging_counted_in_bytes(*hooks.staging_in_use, target);
    // The run went out as a few wide segments (the bad rows shared them
    // with healthy ones), then one segment per far row.
    EXPECT_LT(r.counters.segments, 16u + 40u / 4);
    std::vector<NodeId> failed = r.failed;
    std::sort(failed.begin(), failed.end());
    EXPECT_EQ(failed, bad);
    // The healthy rows of the failed segments, and the rows planned after
    // them, loaded byte-exact.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (std::find(bad.begin(), bad.end(), nodes[i]) != bad.end()) continue;
      EXPECT_EQ(std::memcmp(r.data.data() + i * dim, truth.data() + i * dim,
                            dim * sizeof(float)),
                0)
          << "node " << nodes[i];
    }
  }
}

TEST(CoalesceFaults, TransientEioRecoversThroughSegmentRetries) {
  Dataset ds = Dataset::build(toy_spec(128));
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.eio_probability = 0.15;

  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 300; ++v) nodes.push_back(v * 3);
  const std::vector<float> truth = ground_truth(ds, nodes);

  for (const Target target : kTargets) {
    for (const bool enabled : {true, false}) {
      CoalesceConfig co;
      co.enabled = enabled;
      SCOPED_TRACE(target_name(target));
      SCOPED_TRACE(enabled ? "coalesce=on" : "coalesce=off");
      Telemetry telemetry;
      const ExtractMetricHooks hooks = extract_metric_hooks(&telemetry);
      const GatherResult r = gather(ds, target, co, nodes, &faults, 8, 250.0,
                                    &telemetry, hooks);
      ASSERT_TRUE(r.ok);
      EXPECT_GT(r.counters.io_errors, 0u);
      EXPECT_GT(r.counters.io_retries, 0u);
      // io_recovered counts segments that eventually succeeded; io_errors
      // counts every failed attempt, so a doubly-unlucky segment recovers
      // once but errors twice.
      EXPECT_GT(r.counters.io_recovered, 0u);
      EXPECT_LE(r.counters.io_recovered, r.counters.io_errors);
      // The ring and the loop count the same faults into the registry.
      MetricsRegistry& reg = *telemetry.metrics();
      EXPECT_EQ(reg.counter("fault.io_errors").value(), r.counters.io_errors);
      EXPECT_EQ(reg.counter("fault.io_retries").value(),
                r.counters.io_retries);
      // Retried segments keep their staging bytes and redeliver exact bytes.
      EXPECT_EQ(std::memcmp(r.data.data(), truth.data(),
                            truth.size() * sizeof(float)),
                0);
      expect_staging_counted_in_bytes(*hooks.staging_in_use, target);
    }
  }
}

TEST(CoalesceFaults, StuckSegmentsCancelledByWatchdog) {
  Dataset ds = Dataset::build(toy_spec(128));
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.stuck_probability = 1.0;

  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 32; ++v) nodes.push_back(v);
  CoalesceConfig co;
  for (const Target target : kTargets) {
    SCOPED_TRACE(target_name(target));
    Telemetry telemetry;
    const ExtractMetricHooks hooks = extract_metric_hooks(&telemetry);
    const GatherResult r = gather(ds, target, co, nodes, &faults, 1, 20.0,
                                  &telemetry, hooks);
    EXPECT_FALSE(r.ok);
    EXPECT_GT(r.counters.io_timeouts, 0u);
    // Cancelled reads never touch their bytes, so they return at once.
    expect_staging_counted_in_bytes(*hooks.staging_in_use, target);
  }
}

// -- Serve take-over of unstarted training loads ------------------------------

// Training and serving on one feature buffer and device, each with its own
// ring and staging arena, as GnnDrive and ServeEngine share them. Training
// triages its batch first; a serve extraction then takes over the rows it
// shares with training's load set; then training extracts. With
// `concurrent`, training's extraction runs on a thread while serving
// extracts, so training's waits on the taken rows really block.
struct TakeOverRun {
  bool train_ok = false;
  bool serve_ok = false;
  ExtractCounters train;
  ExtractCounters serve;
  std::uint64_t ssd_reads = 0;        ///< both clients
  std::uint64_t train_ssd_reads = 0;  ///< during training's extraction
  FeatureBufferStats train_fb;
  FeatureBufferStats serve_fb;
  std::uint64_t takeovers = 0;        ///< fb.serve.takeovers
  std::uint64_t coalesce_rows = 0;    ///< io.coalesce.rows
  /// Rows byte-exact against the dataset: training's and serving's, for
  /// every node that was valid before the releases (all, when ok).
  std::vector<NodeId> exact;
  std::vector<NodeId> failed;  ///< nodes marked failed, before the releases
};

TakeOverRun take_over_run(Dataset& ds, Target target,
                          const std::vector<NodeId>& train_nodes,
                          const std::vector<NodeId>& serve_nodes,
                          bool concurrent,
                          const SsdFaultConfig* faults = nullptr) {
  SsdConfig ssd_cfg;
  ssd_cfg.read_latency_us = 20.0;
  auto ssd = ds.make_device(ssd_cfg);
  if (faults != nullptr) ssd->set_fault_config(*faults);
  Telemetry telemetry;
  const ExtractMetricHooks hooks = extract_metric_hooks(&telemetry);
  const auto dim = ds.spec().feature_dim;
  const auto row_bytes =
      static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
  FeatureBuffer fb(
      FeatureBufferConfig{train_nodes.size() + serve_nodes.size(), dim},
      ds.spec().num_nodes, &telemetry);
  std::unique_ptr<GpuDevice> gpu;
  if (target == Target::kGds) gpu = std::make_unique<GpuDevice>(GpuConfig{});

  const CoalesceConfig co;
  const std::uint32_t staging_row_bytes = staging_row_bytes_for(
      co, covering_row_bytes(row_bytes, read_align(target)));
  const std::uint32_t staging_rows = staging_rows_for(co, 64);
  struct Client {
    std::unique_ptr<IoRing> ring;
    std::vector<std::uint8_t> staging;
    ExtractEnv env;
    ExtractPolicy policy;
    SampledBatch batch;
    std::vector<std::uint32_t> wait_idx, load_idx;
    bool ok = false;
  };
  Client clients[2];
  for (const FbClient c : {FbClient::kTrain, FbClient::kServe}) {
    Client& cl = clients[static_cast<std::size_t>(c)];
    IoRingConfig rc;
    rc.queue_depth = 64;
    rc.direct = true;
    rc.max_transfer_bytes = staging_row_bytes;
    rc.io_class = c == FbClient::kServe ? IoClass::kLatency
                                        : IoClass::kThroughput;
    cl.ring = std::make_unique<IoRing>(*ssd, rc, nullptr, &telemetry);
    cl.staging.resize(staging_arena_bytes(staging_rows, staging_row_bytes));
    cl.env = ExtractEnv{&fb,          &ds.layout(),      row_bytes,
                        cl.ring.get(), cl.staging.data(), staging_row_bytes,
                        staging_rows,  gpu.get(),         &telemetry,
                        target == Target::kGds};
    cl.policy.coalesce = co;
    cl.policy.max_retries = 2;
    set_timeouts(cl.policy, 250.0, c == FbClient::kServe ? 1000.0 : 10000.0);
    cl.policy.client = c;
    cl.batch.nodes = c == FbClient::kServe ? serve_nodes : train_nodes;
    cl.batch.alias.assign(cl.batch.nodes.size(), kNoSlot);
  }
  Client& train = clients[0];
  Client& serve = clients[1];

  TakeOverRun out;
  triage_batch(fb, train.batch, train.wait_idx, train.load_idx,
               FbClient::kTrain);
  triage_batch(fb, serve.batch, serve.wait_idx, serve.load_idx,
               FbClient::kServe);
  const auto extract = [&](Client& cl, ExtractCounters& counters) {
    cl.ok = extract_load_set(cl.batch, cl.load_idx, cl.env, cl.policy, hooks,
                             counters, nullptr) &&
            resolve_wait_list(fb, cl.batch, cl.wait_idx,
                              cl.policy.wait_list_timeout);
  };
  if (concurrent) {
    std::thread trainer([&] { extract(train, out.train); });
    extract(serve, out.serve);
    trainer.join();
  } else {
    extract(serve, out.serve);
    const std::uint64_t reads0 = ssd->stats().reads;
    extract(train, out.train);
    out.train_ssd_reads = ssd->stats().reads - reads0;
  }
  out.train_ok = train.ok;
  out.serve_ok = serve.ok;
  out.ssd_reads = ssd->stats().reads;
  out.train_fb = fb.stats(FbClient::kTrain);
  out.serve_fb = fb.stats(FbClient::kServe);
  out.takeovers = telemetry.metrics()->counter("fb.serve.takeovers").value();
  out.coalesce_rows = hooks.rows->value();

  std::vector<float> truth(dim);
  for (const Client* cl : {&train, &serve}) {
    for (const NodeId v : cl->batch.nodes) {
      const auto e = fb.entry(v);
      if (e.failed) out.failed.push_back(v);
      if (!e.valid) continue;
      ds.read_feature_row(v, truth.data());
      if (std::memcmp(fb.slot_data(e.slot), truth.data(),
                      dim * sizeof(float)) == 0) {
        out.exact.push_back(v);
      }
    }
  }
  for (auto* list : {&out.exact, &out.failed}) {
    std::sort(list->begin(), list->end());
    list->erase(std::unique(list->begin(), list->end()), list->end());
  }

  // Serving releases first; a failed entry that training still references
  // stays failed until training's release, its last.
  fb.release(serve.batch.nodes);
  for (const NodeId v : out.failed) {
    EXPECT_TRUE(fb.entry(v).failed) << "node " << v;
  }
  fb.release(train.batch.nodes);
  for (NodeId v = 0; v < ds.spec().num_nodes; ++v) {
    const auto e = fb.entry(v);
    EXPECT_EQ(e.ref_count, 0u) << "leaked ref on node " << v;
    EXPECT_FALSE(e.failed) << "node " << v << " did not reset";
  }
  EXPECT_EQ(fb.standby_size(), fb.num_slots());
  EXPECT_EQ(train.ring->in_flight(), 0u);
  EXPECT_EQ(serve.ring->in_flight(), 0u);
  EXPECT_EQ(hooks.staging_in_use->value(), 0) << "staging bytes leaked";
  return out;
}

std::vector<NodeId> node_run(NodeId first, NodeId count) {
  std::vector<NodeId> nodes(count);
  for (NodeId i = 0; i < count; ++i) nodes[i] = first + i;
  return nodes;
}

std::vector<NodeId> sorted_union(std::vector<NodeId> a,
                                 const std::vector<NodeId>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

// Training's load set: three runs far apart on disk, one segment each.
// Serving shares all of the first and two rows of the second, and loads two
// rows of its own.
struct TakeOverSets {
  std::vector<NodeId> all_taken = node_run(2000, 8);
  std::vector<NodeId> partly = node_run(2200, 8);
  std::vector<NodeId> untouched = node_run(2400, 8);
  std::vector<NodeId> taken_of_partly = {2203, 2204};
  std::vector<NodeId> serve_own = {3000, 3001};
  std::vector<NodeId> train() const {
    return sorted_union(sorted_union(all_taken, partly), untouched);
  }
  std::vector<NodeId> serve() const {
    return sorted_union(sorted_union(all_taken, taken_of_partly), serve_own);
  }
};

TEST(CoalesceTakeOver, ServeTakesUnstartedRowsAndTrainingSkipsTheirReads) {
  Dataset ds = Dataset::build(toy_spec(128));
  const TakeOverSets sets;
  const std::vector<NodeId> train = sets.train();
  const std::vector<NodeId> serve = sets.serve();
  const std::uint64_t taken = sets.all_taken.size() +
                              sets.taken_of_partly.size();
  for (const Target target : kTargets) {
    for (const bool concurrent : {false, true}) {
      SCOPED_TRACE(target_name(target));
      SCOPED_TRACE(concurrent ? "concurrent" : "serve first");
      const TakeOverRun r = take_over_run(ds, target, train, serve, concurrent);
      ASSERT_TRUE(r.serve_ok);
      ASSERT_TRUE(r.train_ok);
      EXPECT_EQ(r.exact, sorted_union(train, serve));  // every row byte-exact
      // The all-taken segment issued no read; the partly taken one read
      // once; the untouched one once. Serving read its three runs once each.
      EXPECT_EQ(r.train.segments, 2u);
      EXPECT_EQ(r.serve.segments, 3u);
      if (!concurrent) {
        EXPECT_EQ(r.train_ssd_reads, 2u);
      }
      EXPECT_EQ(r.ssd_reads, 5u);
      EXPECT_EQ(r.train.rows_loaded, train.size() - taken);
      EXPECT_EQ(r.serve.rows_loaded, serve.size());
      // Each take-over counts once, as a serve load.
      EXPECT_EQ(r.takeovers, taken);
      EXPECT_EQ(r.serve_fb.loads, serve.size());
      EXPECT_EQ(r.serve_fb.wait_hits, 0u);
      EXPECT_EQ(r.train_fb.loads, train.size());
      // Rows delivered by reads = training loads + serve loads - take-overs.
      EXPECT_EQ(r.coalesce_rows,
                r.train_fb.loads + r.serve_fb.loads - r.takeovers);
      EXPECT_TRUE(r.failed.empty());
    }
  }
}

TEST(CoalesceTakeOver, FailedTakeOverFailsServeAndTheWaitingTrainingBatch) {
  Dataset ds = Dataset::build(toy_spec(128));
  const auto& lay = ds.layout();
  const TakeOverSets sets;
  const std::vector<NodeId> train = sets.train();
  const std::vector<NodeId> serve = sets.serve();
  // Media errors under one taken-over row: serving's read of it fails for
  // good, after retries and a re-read of its segment row by row.
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back(
      {lay.feature_offset_of(2003),
       lay.feature_offset_of(2003) + lay.feature_row_bytes});
  for (const Target target : kTargets) {
    for (const bool concurrent : {false, true}) {
      SCOPED_TRACE(target_name(target));
      SCOPED_TRACE(concurrent ? "concurrent" : "serve first");
      // A row fails when its own covering read touches the bad bytes.
      const std::uint32_t align = read_align(target);
      std::vector<NodeId> bad;
      for (const NodeId v : sets.all_taken) {
        const std::uint64_t off = lay.feature_offset_of(v);
        if (round_down(off, align) < faults.bad_ranges[0].end &&
            round_up(off + lay.feature_row_bytes, align) >
                faults.bad_ranges[0].begin) {
          bad.push_back(v);
        }
      }
      ASSERT_FALSE(bad.empty());
      ASSERT_LT(bad.size(), sets.all_taken.size());
      const TakeOverRun r =
          take_over_run(ds, target, train, serve, concurrent, &faults);
      // Both batches fail: serving read the row, training waited on it.
      EXPECT_FALSE(r.serve_ok);
      EXPECT_FALSE(r.train_ok);
      EXPECT_EQ(r.failed, bad);
      // Every other row of both batches still loaded, byte-exact; the
      // failed entries reset at training's release (take_over_run checks).
      std::vector<NodeId> healthy;
      for (const NodeId v : sorted_union(train, serve)) {
        if (std::find(bad.begin(), bad.end(), v) == bad.end()) {
          healthy.push_back(v);
        }
      }
      EXPECT_EQ(r.exact, healthy);
      EXPECT_EQ(r.train.segments, 2u);
      EXPECT_EQ(r.takeovers,
                sets.all_taken.size() + sets.taken_of_partly.size());
    }
  }
}

TEST(CoalesceTakeOver, BadBytesUnderATakenRowSpareTheRowTrainingKeeps) {
  Dataset ds = Dataset::build(toy_spec(128));
  const auto& lay = ds.layout();
  // Serving takes over all but the last row of training's first segment,
  // and its read of 2203 fails for good. Training's read of that segment
  // still spans the bad bytes, but the one row it keeps, 2207, reads fine
  // on its own.
  const std::vector<NodeId> train =
      sorted_union(node_run(2200, 8), node_run(2400, 8));
  const std::vector<NodeId> serve = sorted_union(node_run(2200, 7), {3000});
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back(
      {lay.feature_offset_of(2203),
       lay.feature_offset_of(2203) + lay.feature_row_bytes});
  for (const Target target : kTargets) {
    for (const bool concurrent : {false, true}) {
      SCOPED_TRACE(target_name(target));
      SCOPED_TRACE(concurrent ? "concurrent" : "serve first");
      // A row fails when its own covering read touches the bad bytes.
      const std::uint32_t align = read_align(target);
      std::vector<NodeId> bad;
      std::vector<NodeId> healthy;
      for (const NodeId v : sorted_union(train, serve)) {
        const std::uint64_t off = lay.feature_offset_of(v);
        const bool hit = round_down(off, align) < faults.bad_ranges[0].end &&
                         round_up(off + lay.feature_row_bytes, align) >
                             faults.bad_ranges[0].begin;
        (hit ? bad : healthy).push_back(v);
      }
      if (target == Target::kStaging) {
        ASSERT_EQ(std::find(bad.begin(), bad.end(), 2207u), bad.end());
      }
      const TakeOverRun r =
          take_over_run(ds, target, train, serve, concurrent, &faults);
      EXPECT_FALSE(r.serve_ok);
      EXPECT_FALSE(r.train_ok);  // it waited on 2203
      EXPECT_EQ(r.failed, bad);
      EXPECT_EQ(r.exact, healthy);
      EXPECT_EQ(r.train.segments, 2u);
      EXPECT_EQ(r.train.rows_loaded, train.size() - 7);
      EXPECT_EQ(r.takeovers, 7u);
    }
  }
}

// -- IoRing request-length validation ----------------------------------------

// -- Look-ahead rides ---------------------------------------------------------
// A training read that completes scatters, besides its own rows, the gap
// rows a queued batch wants (FeatureBuffer::want) into free slots, so that
// batch later finds them buffered. Run on the three scatter targets: a host
// arena copied by memcpy (CPU training; gather()'s staging target), a device
// arena under GDS, and a host arena copied to the GPU by async H2D.
enum class RideTarget { kCpu, kGds, kH2d };
constexpr RideTarget kRideTargets[] = {RideTarget::kCpu, RideTarget::kGds,
                                       RideTarget::kH2d};

const char* ride_target_name(RideTarget target) {
  switch (target) {
    case RideTarget::kCpu: return "target=cpu";
    case RideTarget::kGds: return "target=gds";
    case RideTarget::kH2d: return "target=h2d";
  }
  return "";
}

struct LookAheadRig {
  LookAheadRig(Dataset& ds_in, RideTarget target,
               const SsdFaultConfig* faults = nullptr)
      : ds(ds_in), hooks(extract_metric_hooks(&telemetry)) {
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    ssd = ds.make_device(ssd_cfg);
    if (faults != nullptr) ssd->set_fault_config(*faults);
    fb = std::make_unique<FeatureBuffer>(
        FeatureBufferConfig{256, ds.spec().feature_dim}, ds.spec().num_nodes,
        &telemetry);
    if (target != RideTarget::kCpu) {
      gpu = std::make_unique<GpuDevice>(GpuConfig{});
    }
    const bool gds = target == RideTarget::kGds;
    const auto row_bytes =
        static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
    const CoalesceConfig co;
    const std::uint32_t staging_row_bytes = staging_row_bytes_for(
        co, covering_row_bytes(row_bytes, gds ? kPageSize : kSectorSize));
    const std::uint32_t staging_rows = staging_rows_for(co, 64);
    staging.resize(staging_arena_bytes(staging_rows, staging_row_bytes));
    for (const FbClient c : {FbClient::kTrain, FbClient::kServe}) {
      IoRingConfig rc;
      rc.queue_depth = 64;
      rc.max_transfer_bytes = staging_row_bytes;
      rings[static_cast<std::size_t>(c)] =
          std::make_unique<IoRing>(*ssd, rc, nullptr, &telemetry);
    }
    env = ExtractEnv{fb.get(),      &ds.layout(),      row_bytes,
                     nullptr,       staging.data(),    staging_row_bytes,
                     staging_rows,  gpu.get(),         &telemetry,
                     gds};
    policy.coalesce = co;
    policy.max_retries = 1;
    set_timeouts(policy, 250.0, 10000.0);
  }

  /// Algorithm 1 for `nodes` as `client`; the batch keeps its references.
  SampledBatch extract(const std::vector<NodeId>& nodes, bool* ok,
                       FbClient client = FbClient::kTrain) {
    SampledBatch batch;
    batch.batch_id = ++batches;
    batch.nodes = nodes;
    batch.alias.assign(nodes.size(), kNoSlot);
    ExtractEnv e = env;
    e.ring = rings[static_cast<std::size_t>(client)].get();
    ExtractPolicy p = policy;
    p.client = client;
    ExtractCounters counters;
    *ok = extract_batch(batch, e, p, hooks, counters, nullptr);
    return batch;
  }

  std::uint64_t reads() const { return ssd->stats().reads; }
  std::uint64_t prefetches() {
    return telemetry.metrics()->counter("fb.prefetches").value();
  }

  /// The rows of `nodes` in the buffer are the dataset's bytes.
  void expect_exact(const std::vector<NodeId>& nodes) const {
    const auto dim = ds.spec().feature_dim;
    std::vector<float> truth(dim);
    for (const NodeId v : nodes) {
      const auto e = fb->entry(v);
      ASSERT_TRUE(e.valid) << "node " << v;
      ds.read_feature_row(v, truth.data());
      EXPECT_EQ(std::memcmp(fb->slot_data(e.slot), truth.data(),
                            dim * sizeof(float)),
                0)
          << "node " << v;
    }
  }

  /// Nothing held once every batch released and dropped its hints.
  void expect_clean() const {
    for (NodeId v = 0; v < ds.spec().num_nodes; ++v) {
      const auto e = fb->entry(v);
      ASSERT_EQ(e.ref_count, 0u) << "leaked ref on node " << v;
      ASSERT_EQ(e.want, 0u) << "leaked hint on node " << v;
    }
    EXPECT_EQ(fb->standby_size(), fb->num_slots());
    EXPECT_EQ(hooks.staging_in_use->value(), 0) << "staging bytes leaked";
    for (const auto& ring : rings) EXPECT_EQ(ring->in_flight(), 0u);
  }

  Dataset& ds;
  Telemetry telemetry;
  ExtractMetricHooks hooks;
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<FeatureBuffer> fb;
  std::unique_ptr<GpuDevice> gpu;
  std::unique_ptr<IoRing> rings[kNumFbClients];
  std::vector<std::uint8_t> staging;
  ExtractEnv env;
  ExtractPolicy policy;
  std::uint64_t batches = 0;
};

TEST(CoalesceLookAhead, WantedGapRowsRideInAndTriageAsReuseHits) {
  Dataset ds = Dataset::build(toy_spec(128));  // 512 B rows
  const std::vector<NodeId> a = {100, 106};           // one segment
  const std::vector<NodeId> queued = {101, 103, 105};  // in its gap
  for (const RideTarget target : kRideTargets) {
    SCOPED_TRACE(ride_target_name(target));
    LookAheadRig rig(ds, target);
    rig.fb->want(queued, +1);
    bool ok = false;
    SampledBatch batch_a = rig.extract(a, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(rig.reads(), 1u);
    EXPECT_EQ(rig.prefetches(), queued.size());
    rig.expect_exact(queued);
    // Unwanted gap rows stay on disk.
    EXPECT_FALSE(rig.fb->entry(102).valid);
    EXPECT_FALSE(rig.fb->entry(104).valid);
    rig.fb->release(batch_a.nodes);

    // The queued batch reads nothing: its rows triage as reuse hits.
    const FeatureBufferStats before = rig.fb->stats();
    SampledBatch batch_b = rig.extract(queued, &ok);
    ASSERT_TRUE(ok);
    rig.fb->want(queued, -1);
    const FeatureBufferStats after = rig.fb->stats();
    EXPECT_EQ(rig.reads(), 1u);
    EXPECT_EQ(after.reuse_hits - before.reuse_hits, queued.size());
    EXPECT_EQ(after.loads, before.loads);
    for (std::size_t i = 0; i < queued.size(); ++i) {
      EXPECT_EQ(batch_b.alias[i], rig.fb->entry(queued[i]).slot);
    }
    rig.expect_exact(queued);
    rig.fb->release(batch_b.nodes);
    // A ride is neither a load nor a delivered row of the read.
    EXPECT_EQ(rig.fb->stats().loads, a.size());
    EXPECT_EQ(rig.hooks.rows->value(), a.size());
    rig.expect_clean();
  }
}

TEST(CoalesceLookAhead, OnlyWantedUnbufferedUnclaimedRowsRide) {
  Dataset ds = Dataset::build(toy_spec(128));
  const std::vector<NodeId> a = {200, 210};
  for (const RideTarget target : kRideTargets) {
    SCOPED_TRACE(ride_target_name(target));
    LookAheadRig rig(ds, target);
    bool ok = false;
    // 201: wanted but already buffered.
    SampledBatch warm = rig.extract({201}, &ok);
    ASSERT_TRUE(ok);
    rig.fb->release(warm.nodes);
    const SlotId slot_201 = rig.fb->entry(201).slot;
    // 203: wanted but claimed by another training loader (in flight).
    ASSERT_EQ(rig.fb->check_and_ref(203).status,
              FeatureBuffer::CheckStatus::kMustLoad);
    // 205: wanted but claimed by a serve lookup.
    ASSERT_EQ(rig.fb->check_and_ref(205, FbClient::kServe).status,
              FeatureBuffer::CheckStatus::kMustLoad);
    // 207: nobody wants it. 209: wanted and free, so it rides.
    const std::vector<NodeId> queued = {201, 203, 205, 209};
    rig.fb->want(queued, +1);
    const std::uint64_t reads0 = rig.reads();
    SampledBatch batch_a = rig.extract(a, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(rig.reads() - reads0, 1u);
    EXPECT_EQ(rig.prefetches(), 1u);
    rig.expect_exact({209});
    EXPECT_EQ(rig.fb->entry(201).slot, slot_201);
    for (const NodeId v : {203u, 205u}) {
      const auto e = rig.fb->entry(v);
      EXPECT_EQ(e.ref_count, 1u) << "node " << v;
      EXPECT_FALSE(e.valid) << "node " << v;
      EXPECT_EQ(e.slot, kNoSlot) << "node " << v;
    }
    EXPECT_FALSE(rig.fb->entry(207).valid);
    rig.fb->release(batch_a.nodes);
    rig.fb->release({203, 205});

    // A serve read never rides, even over wanted free rows.
    rig.fb->want({303, 305}, +1);
    SampledBatch served = rig.extract({300, 308}, &ok, FbClient::kServe);
    ASSERT_TRUE(ok);
    EXPECT_EQ(rig.prefetches(), 1u);
    EXPECT_FALSE(rig.fb->entry(303).valid);
    EXPECT_FALSE(rig.fb->entry(305).valid);
    rig.fb->release(served.nodes);
    rig.fb->want({303, 305}, -1);
    rig.fb->want(queued, -1);
    rig.expect_clean();
  }
}

TEST(CoalesceLookAhead, FailedSegmentRidesNothing) {
  Dataset ds = Dataset::build(toy_spec(128));
  const auto& lay = ds.layout();
  // One segment over rows 300..320 with media errors under row 310: it
  // fails, and its two rows are re-read on their own (far enough from 310
  // that even their 4 KiB GDS pages stay clear of it). The queued batch
  // wants rows of the failed segment and, under GDS, rows that share a
  // re-read's page (a neighbour of 300 and of 320 always does).
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back(
      {lay.feature_offset_of(310),
       lay.feature_offset_of(310) + lay.feature_row_bytes});
  const std::vector<NodeId> a = {300, 320};
  const std::vector<NodeId> queued = {299, 301, 305, 315, 319, 321};
  for (const RideTarget target : kRideTargets) {
    SCOPED_TRACE(ride_target_name(target));
    LookAheadRig rig(ds, target, &faults);
    rig.fb->want(queued, +1);
    bool ok = false;
    SampledBatch batch_a = rig.extract(a, &ok);
    ASSERT_TRUE(ok);
    rig.expect_exact(a);
    EXPECT_GT(rig.reads(), 2u);  // the failed segment, then two re-reads
    EXPECT_EQ(rig.prefetches(), 0u);
    for (const NodeId v : queued) {
      EXPECT_FALSE(rig.fb->entry(v).valid) << "node " << v;
      EXPECT_EQ(rig.fb->entry(v).ref_count, 0u) << "node " << v;
    }
    rig.fb->release(batch_a.nodes);
    rig.fb->want(queued, -1);
    rig.expect_clean();
  }
}

TEST(CoalesceIoRing, OversizedAndZeroLengthReadsFailEinval) {
  Dataset ds = Dataset::build(toy_spec(128));
  auto ssd = ds.make_device(SsdConfig{});
  IoRingConfig rc;
  rc.direct = true;
  rc.max_transfer_bytes = 4096;
  IoRing ring(*ssd, rc);
  std::vector<std::uint8_t> buf(8192);

  ASSERT_TRUE(ring.prep_read(0, 8192, buf.data(), 1));  // over the cap
  ASSERT_TRUE(ring.prep_read(0, 0, buf.data(), 2));     // zero length
  ASSERT_TRUE(ring.prep_read(0, 4096, buf.data(), 3));  // at the cap: ok
  ring.submit();
  int einval = 0, ok = 0;
  for (int i = 0; i < 3; ++i) {
    const Cqe cqe = ring.wait_cqe();
    if (cqe.user_data == 3) {
      EXPECT_EQ(cqe.res, 4096);
      ++ok;
    } else {
      EXPECT_EQ(cqe.res, -EINVAL) << "user_data " << cqe.user_data;
      ++einval;
    }
  }
  EXPECT_EQ(einval, 2);
  EXPECT_EQ(ok, 1);
}

// -- End-to-end differential: training pipeline ------------------------------

TEST(CoalesceEndToEnd, TrainingFeaturesExactAndReadsDropWithCoalescing) {
  Dataset ds = Dataset::build(toy_spec(128));

  const auto run = [&](Target target, bool enabled, std::uint64_t* reads,
                       std::uint64_t* loads, std::uint64_t* prefetches,
                       EpochObs* obs) {
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    auto ssd = ds.make_device(ssd_cfg);
    HostMemory mem(64ull << 20);
    PageCache cache(mem, *ssd);
    Telemetry telemetry;
    RunContext ctx{&ds, ssd.get(), &mem, &cache, &telemetry};
    GnnDriveConfig cfg;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5};
    cfg.common.batch_seeds = 64;
    // Bare feature-buffer reserve (one extractor, minimum scale): the
    // buffer holds about half the graph, so every batch performs real
    // capacity-miss loads — a dense to-load set where merging is visible.
    cfg.num_extractors = 1;
    cfg.feature_buffer_scale = 0.05;
    cfg.coalesce.enabled = enabled;
    cfg.gds_mode = target == Target::kGds;
    GnnDrive system(ctx, cfg);
    system.run_epoch(100);  // warm: topology resident in the page cache
    const Counter& rides = telemetry.metrics()->counter("fb.prefetches");
    const auto reads_before = ssd->stats().reads;
    const auto loads_before = system.feature_buffer().stats().loads;
    const auto rides_before = rides.value();
    const EpochStats stats = system.run_epoch(0);
    *reads = ssd->stats().reads - reads_before;
    *loads = system.feature_buffer().stats().loads - loads_before;
    *prefetches = rides.value() - rides_before;
    *obs = stats.obs;
    // Whatever the I/O shape, buffered features must be the disk bytes.
    const auto dim = ds.spec().feature_dim;
    std::vector<float> truth(dim);
    std::uint64_t checked = 0;
    for (NodeId v = 0; v < ds.spec().num_nodes; ++v) {
      const auto e = system.feature_buffer().entry(v);
      if (!e.valid) continue;
      ds.read_feature_row(v, truth.data());
      ASSERT_EQ(std::memcmp(system.feature_buffer().slot_data(e.slot),
                            truth.data(), dim * sizeof(float)),
                0)
          << "node " << v;
      ++checked;
    }
    EXPECT_GT(checked, 100u);
  };

  for (const Target target : kTargets) {
    SCOPED_TRACE(target_name(target));
    std::uint64_t reads_on = 0, loads_on = 0, reads_off = 0, loads_off = 0;
    std::uint64_t rides_on = 0, rides_off = 0;
    EpochObs obs_on{}, obs_off{};
    run(target, true, &reads_on, &loads_on, &rides_on, &obs_on);
    run(target, false, &reads_off, &loads_off, &rides_off, &obs_off);

    // Same training plan both ways (deterministic seeds). Rides only take
    // loads away, and wider reads ride more gap rows in for queued batches.
    // Under GDS an uncoalesced read covers its whole page, so that side
    // rides too, and how many of its loads a ride saves depends on timing:
    // bound the coalesced loads by the rows the uncoalesced epoch brought
    // in, its loads plus its rides. The few percent of slack is the shift
    // of eviction with completion order under capacity misses; an
    // extraction that loads rows twice or churns the buffer when coalescing
    // is on breaks the bound.
    EXPECT_GT(rides_on, 0u);
    EXPECT_LT(static_cast<double>(loads_on),
              1.05 * static_cast<double>(loads_off + rides_off));
    EXPECT_EQ(obs_on.io_rows, loads_on);
    EXPECT_EQ(obs_off.io_rows, loads_off);
    EXPECT_EQ(obs_off.io_segments, loads_off);  // baseline: one read per node
    // Coalescing must actually merge: the acceptance bar is >= 2x fewer SSD
    // read requests for the same trained epoch.
    EXPECT_GT(obs_on.rows_per_read(), 2.0);
    EXPECT_LT(2 * reads_on, reads_off);
  }
}

// -- End-to-end differential: serving ----------------------------------------

TEST(CoalesceEndToEnd, ServePredictionsIdenticalOnVsOff) {
  Dataset ds = Dataset::build(toy_spec(128));

  const auto run = [&](bool enabled, std::vector<std::int32_t>* classes) {
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    auto ssd = ds.make_device(ssd_cfg);
    HostMemory mem(64ull << 20);
    PageCache cache(mem, *ssd);
    Telemetry telemetry;
    FeatureBuffer fb(FeatureBufferConfig{2048, ds.spec().feature_dim},
                     ds.spec().num_nodes, &telemetry);
    ModelConfig mc;
    mc.kind = ModelKind::kSage;
    mc.in_dim = ds.spec().feature_dim;
    mc.hidden_dim = 16;
    mc.num_classes = ds.spec().num_classes;
    mc.num_layers = 2;
    GnnModel model(mc);
    RunContext ctx{&ds, ssd.get(), &mem, &cache, &telemetry};

    ServeConfig cfg;
    cfg.sampler.fanouts = {5, 5};
    cfg.workers = 1;
    cfg.max_batch = 8;
    cfg.max_wait_us = 200.0;
    cfg.slo.deadline_ms = 0.0;
    cfg.coalesce.enabled = enabled;
    ServeEngine engine(ctx, cfg, ServeSubstrate{&fb, &model, nullptr, 0});

    // Backlog submitted before start(): identical micro-batching both runs.
    std::vector<std::future<InferResult>> futures;
    for (NodeId v = 0; v < 64; ++v) futures.push_back(engine.submit(v * 50));
    engine.start();
    classes->clear();
    for (auto& f : futures) {
      const InferResult r = f.get();
      ASSERT_EQ(static_cast<int>(r.status),
                static_cast<int>(InferStatus::kOk));
      classes->push_back(r.predicted_class);
    }
    engine.stop();
    for (NodeId v = 0; v < ds.spec().num_nodes; ++v) {
      ASSERT_EQ(fb.entry(v).ref_count, 0u) << "leaked ref on node " << v;
    }
    EXPECT_EQ(fb.standby_size(), fb.num_slots());
  };

  std::vector<std::int32_t> on, off;
  run(true, &on);
  run(false, &off);
  ASSERT_EQ(on.size(), off.size());
  EXPECT_EQ(on, off);
}

TEST(CoalesceEndToEnd, ServeSurvivesBadRangeWithoutLeaks) {
  Dataset ds = Dataset::build(toy_spec(128));
  SsdConfig ssd_cfg;
  ssd_cfg.read_latency_us = 20.0;
  auto ssd = ds.make_device(ssd_cfg);
  const auto& lay = ds.layout();
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back({lay.feature_offset_of(1000),
                               lay.feature_offset_of(1200)});
  ssd->set_fault_config(faults);

  HostMemory mem(64ull << 20);
  PageCache cache(mem, *ssd);
  Telemetry telemetry;
  FeatureBuffer fb(FeatureBufferConfig{2048, ds.spec().feature_dim},
                   ds.spec().num_nodes, &telemetry);
  ModelConfig mc;
  mc.kind = ModelKind::kSage;
  mc.in_dim = ds.spec().feature_dim;
  mc.hidden_dim = 16;
  mc.num_classes = ds.spec().num_classes;
  mc.num_layers = 2;
  GnnModel model(mc);
  RunContext ctx{&ds, ssd.get(), &mem, &cache, &telemetry};

  ServeConfig cfg;
  cfg.sampler.fanouts = {5, 5};
  cfg.workers = 1;
  cfg.slo.deadline_ms = 0.0;
  cfg.max_retries = 1;
  ServeEngine engine(ctx, cfg, ServeSubstrate{&fb, &model, nullptr, 0});
  engine.start();
  std::vector<std::future<InferResult>> futures;
  for (NodeId v = 990; v < 1010; ++v) futures.push_back(engine.submit(v));
  std::uint64_t failed = 0, served = 0;
  for (auto& f : futures) {
    const InferResult r = f.get();
    r.status == InferStatus::kOk ? ++served : ++failed;
  }
  engine.stop();
  EXPECT_GT(failed, 0u);  // requests whose features sit on bad media
  for (NodeId v = 0; v < ds.spec().num_nodes; ++v) {
    ASSERT_EQ(fb.entry(v).ref_count, 0u) << "leaked ref on node " << v;
  }
  EXPECT_EQ(fb.standby_size(), fb.num_slots());
}

}  // namespace
}  // namespace gnndrive
