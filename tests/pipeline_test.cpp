// GNNDrive pipeline end-to-end: extraction correctness against ground
// truth, training progress, sample-only mode, reordering determinism,
// auto-sizing and CPU variant.
#include <gtest/gtest.h>

#include <cstring>

#include "core/pipeline.hpp"

namespace gnndrive {
namespace {

struct PipelineFixture : ::testing::Test {
  static void SetUpTestSuite() {
    dataset = new Dataset(Dataset::build(toy_spec(128)));
  }
  static void TearDownTestSuite() {
    delete dataset;
    dataset = nullptr;
  }
  static Dataset* dataset;

  struct Env {
    std::unique_ptr<SsdDevice> ssd;
    std::unique_ptr<HostMemory> mem;
    std::unique_ptr<PageCache> cache;
    RunContext ctx;
  };
  Env make_env(std::uint64_t host_bytes = 64ull << 20) {
    Env env;
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(host_bytes);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), nullptr};
    return env;
  }

  GnnDriveConfig base_config() {
    GnnDriveConfig cfg;
    cfg.common.model.kind = ModelKind::kSage;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5, 5};
    cfg.common.batch_seeds = 16;
    return cfg;
  }
};
Dataset* PipelineFixture::dataset = nullptr;

TEST_F(PipelineFixture, ExtractedFeaturesMatchGroundTruth) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  system.run_epoch(0);
  // Every valid mapping-table entry must hold exactly the on-disk feature
  // row of its node — asynchronous extraction delivered correct bytes.
  const auto dim = dataset->spec().feature_dim;
  std::vector<float> truth(dim);
  std::uint64_t checked = 0;
  for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
    const auto e = system.feature_buffer().entry(v);
    if (!e.valid) continue;
    dataset->read_feature_row(v, truth.data());
    const float* got = system.feature_buffer().slot_data(e.slot);
    for (std::uint32_t k = 0; k < dim; ++k) {
      ASSERT_EQ(got[k], truth[k]) << "node " << v << " dim " << k;
    }
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST_F(PipelineFixture, LossDecreasesAcrossEpochs) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  const EpochStats first = system.run_epoch(0);
  EpochStats last{};
  for (int e = 1; e < 5; ++e) last = system.run_epoch(e);
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GT(system.evaluate(), 0.5);
}

TEST_F(PipelineFixture, AllReferencesReleasedAfterEpoch) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  system.run_epoch(0);
  for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
    EXPECT_EQ(system.feature_buffer().entry(v).ref_count, 0u);
  }
  EXPECT_EQ(system.feature_buffer().standby_size(),
            system.feature_buffer().num_slots());
}

TEST_F(PipelineFixture, LookAheadHintsAndRidesDrainAfterEpoch) {
  // A buffer at a tenth of its default size evicts all epoch long, so the
  // batches queued for extraction keep their rows and training reads ride
  // rows in for them. Once the epoch ends every hint is dropped and every
  // ride reference returned, and whatever rode in is the disk's bytes.
  auto env = make_env();
  Telemetry telemetry;
  env.ctx.telemetry = &telemetry;
  GnnDriveConfig cfg = base_config();
  cfg.feature_buffer_scale = 0.1;
  GnnDrive system(env.ctx, cfg);
  const EpochStats stats = system.run_epoch(0);
  EXPECT_EQ(stats.result.trained_batches, stats.batches);
  FeatureBuffer& fb = system.feature_buffer();
  EXPECT_GT(telemetry.metrics()->counter("fb.prefetches").value(), 0u);
  const auto dim = dataset->spec().feature_dim;
  std::vector<float> truth(dim);
  for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
    const auto e = fb.entry(v);
    ASSERT_EQ(e.want, 0u) << "node " << v;
    ASSERT_EQ(e.ref_count, 0u) << "node " << v;
    if (!e.valid) continue;
    dataset->read_feature_row(v, truth.data());
    ASSERT_EQ(std::memcmp(fb.slot_data(e.slot), truth.data(), dim * 4), 0)
        << "node " << v;
  }
  EXPECT_EQ(fb.standby_size(), fb.num_slots());
}

TEST_F(PipelineFixture, SampleOnlyModeDoesNoExtraction) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config();
  cfg.common.sample_only = true;
  GnnDrive system(env.ctx, cfg);
  const EpochStats stats = system.run_epoch(0);
  EXPECT_GT(stats.sample_seconds, 0.0);
  EXPECT_EQ(stats.extract_seconds, 0.0);
  EXPECT_EQ(system.feature_buffer().stats().loads, 0u);
}

TEST_F(PipelineFixture, EpochCoversAllTrainNodes) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  const EpochStats stats = system.run_epoch(0);
  const std::size_t expected =
      div_ceil(dataset->train_nodes().size(), 16);
  EXPECT_EQ(stats.batches, expected);
}

TEST_F(PipelineFixture, CpuVariantTrainsWithoutGpu) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config();
  cfg.cpu_training = true;
  GnnDrive system(env.ctx, cfg);
  EXPECT_EQ(system.gpu(), nullptr);
  const EpochStats stats = system.run_epoch(0);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.train_seconds, 0.0);
  system.run_epoch(1);
  EXPECT_GT(system.evaluate(), 0.3);
}

TEST_F(PipelineFixture, RunsUnderTightHostMemoryWithBoundedStaging) {
  // Staging bytes recycle with the I/O depth, so GNNDrive's host footprint
  // stays tiny and a very small budget still trains (the paper's "works
  // even with 8 GB" claim).
  auto env = make_env(6ull << 20);
  GnnDriveConfig cfg = base_config();
  cfg.common.batch_seeds = 8;
  cfg.num_extractors = 4;
  cfg.ring_depth = 64;
  GnnDrive system(env.ctx, cfg);
  // Pinned memory is metadata + Ne x one staging arena, far below Mb.
  const auto row_bytes =
      static_cast<std::uint32_t>(dataset->layout().feature_row_bytes);
  const std::uint64_t arena = staging_arena_bytes(
      staging_rows_for(cfg.coalesce, cfg.ring_depth),
      staging_row_bytes_for(cfg.coalesce,
                            covering_row_bytes(row_bytes, kSectorSize)));
  EXPECT_LE(env.mem->pinned(),
            dataset->host_metadata_bytes() +
                system.effective_extractors() * arena + (64 << 10));
  const EpochStats stats = system.run_epoch(0);
  EXPECT_GT(stats.batches, 0u);
}

TEST_F(PipelineFixture, ByteArenasKeepFourExtractorsUnderATightHostBudget) {
  // 16 MiB of host memory: half of it (the staging budget) holds four
  // 1 MiB byte arenas, where one 256-deep pool of segment-wide 24 KiB rows
  // (6 MiB per extractor) already left room for a single extractor.
  auto env = make_env(16ull << 20);
  GnnDriveConfig cfg = base_config();
  cfg.num_extractors = 4;
  cfg.ring_depth = 256;
  const std::uint64_t budget = static_cast<std::uint64_t>(
      cfg.staging_fraction *
      static_cast<double>(env.mem->available() -
                          dataset->host_metadata_bytes()));
  const auto row_bytes =
      static_cast<std::uint32_t>(dataset->layout().feature_row_bytes);
  const std::uint32_t max_segment = staging_row_bytes_for(
      cfg.coalesce, covering_row_bytes(row_bytes, kSectorSize));
  ASSERT_GT(2ull * cfg.ring_depth * max_segment, budget);
  GnnDrive system(env.ctx, cfg);
  EXPECT_EQ(system.effective_extractors(), 4u);
  const std::uint64_t arena = staging_arena_bytes(cfg.ring_depth, max_segment);
  EXPECT_EQ(arena, 256u * kPageSize);
  EXPECT_LE(env.mem->pinned(),
            dataset->host_metadata_bytes() + 4 * arena + (64 << 10));
  const EpochStats stats = system.run_epoch(0);
  EXPECT_TRUE(stats.result.ok());
  EXPECT_GT(stats.batches, 0u);
}

TEST_F(PipelineFixture, ExtractorsAutoShrinkWhenDeviceMemoryTight) {
  // The Ne x Mb feature-buffer reserve must fit device memory; a small
  // "GPU" forces the extractor count down (the paper's sizing knob).
  auto env = make_env();
  GnnDriveConfig cfg = base_config();
  cfg.common.batch_seeds = 64;
  cfg.num_extractors = 4;
  cfg.gpu.device_memory_bytes = 8ull << 20;
  GnnDrive system(env.ctx, cfg);
  EXPECT_LT(system.effective_extractors(), 4u);
  const EpochStats stats = system.run_epoch(0);
  EXPECT_GT(stats.batches, 0u);
}

TEST_F(PipelineFixture, FeatureBufferScaleChangesSlotCount) {
  auto env1 = make_env();
  GnnDriveConfig cfg = base_config();
  GnnDrive small(env1.ctx, cfg);
  auto env2 = make_env();
  cfg.feature_buffer_scale = 2.0;
  cfg.gpu.device_memory_bytes = 512ull << 20;  // room to grow
  GnnDrive large(env2.ctx, cfg);
  EXPECT_GT(large.feature_buffer().num_slots(),
            small.feature_buffer().num_slots());
}

TEST_F(PipelineFixture, DeterministicBatchSetAcrossRuns) {
  // Reordering may permute execution, but the multiset of trained batches
  // (and hence the loss trajectory endpoint) is the same for a fixed seed.
  auto env1 = make_env();
  auto env2 = make_env();
  Telemetry telemetry1, telemetry2;
  env1.ctx.telemetry = &telemetry1;
  env2.ctx.telemetry = &telemetry2;
  GnnDriveConfig cfg = base_config();
  GnnDrive a(env1.ctx, cfg);
  GnnDrive b(env2.ctx, cfg);
  const EpochStats sa = a.run_epoch(0);
  const EpochStats sb = b.run_epoch(0);
  EXPECT_EQ(sa.batches, sb.batches);
  // Same rows brought into the buffer (same nodes touched): by a batch's
  // own load or, timing-dependent, by a ride in another batch's read.
  const auto brought_in = [](GnnDrive& system, Telemetry& telemetry) {
    return system.feature_buffer().stats().loads +
           telemetry.metrics()->counter("fb.prefetches").value();
  };
  EXPECT_EQ(brought_in(a, telemetry1), brought_in(b, telemetry2));
}

TEST_F(PipelineFixture, SegmentsPartitionTrainingSet) {
  auto env1 = make_env();
  auto env2 = make_env();
  GnnDriveConfig cfg = base_config();
  GnnDrive a(env1.ctx, cfg);
  a.set_segment(0, 2);
  GnnDrive b(env2.ctx, cfg);
  b.set_segment(1, 2);
  const EpochStats sa = a.run_epoch(0);
  const EpochStats sb = b.run_epoch(0);
  // Segmented runs truncate to equal batch counts (gradient-sync barriers).
  const std::size_t total = dataset->train_nodes().size();
  const std::size_t batch = 16;
  const std::size_t equal = (total / 2) / batch;
  EXPECT_EQ(sa.batches, equal);
  EXPECT_EQ(sb.batches, equal);
}

TEST_F(PipelineFixture, DirectIoLeavesPageCacheToTopology) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  system.run_epoch(0);
  // All resident pages must belong to the indices region: feature loads
  // went through direct I/O and never touched the page cache.
  const auto& lay = dataset->layout();
  const std::uint64_t first_feature_page = lay.features_offset / kPageSize;
  const std::uint64_t last_feature_page =
      (lay.features_offset + lay.features_bytes - 1) / kPageSize;
  std::uint64_t feature_pages = 0;
  for (std::uint64_t p = first_feature_page + 1; p < last_feature_page;
       ++p) {
    if (env.cache->contains_page(p)) ++feature_pages;
  }
  EXPECT_EQ(feature_pages, 0u);
}

TEST_F(PipelineFixture, GradSyncHookRunsPerBatch) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  std::atomic<std::uint64_t> calls{0};
  system.set_grad_sync_hook([&](GnnModel&) { ++calls; });
  const EpochStats stats = system.run_epoch(0);
  EXPECT_EQ(calls.load(), stats.batches);
}

}  // namespace
}  // namespace gnndrive
