// GPUDirect-Storage extraction mode (Sect. 4.4 future work): correctness
// and memory-footprint properties.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"

namespace gnndrive {
namespace {

struct GdsFixture : ::testing::Test {
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
  Env make_env() {
    Env env;
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(64ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), nullptr};
    return env;
  }

  GnnDriveConfig config() {
    GnnDriveConfig cfg;
    cfg.common.model.kind = ModelKind::kSage;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5, 5};
    cfg.common.batch_seeds = 16;
    cfg.gds_mode = true;
    return cfg;
  }
};
Dataset* GdsFixture::dataset = nullptr;

TEST_F(GdsFixture, ExtractedFeaturesMatchGroundTruth) {
  auto env = make_env();
  GnnDrive system(env.ctx, config());
  system.run_epoch(0);
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

TEST_F(GdsFixture, NoHostStagingPinned) {
  auto env_gds = make_env();
  GnnDrive gds(env_gds.ctx, config());
  auto env_std = make_env();
  GnnDriveConfig std_cfg = config();
  std_cfg.gds_mode = false;
  GnnDrive standard(env_std.ctx, std_cfg);
  // GDS eliminates the staging buffer: the host pin shrinks to metadata.
  EXPECT_LT(env_gds.mem->pinned(), env_std.mem->pinned());
  EXPECT_LT(env_gds.mem->pinned(),
            dataset->host_metadata_bytes() + (64 << 10));
  // The staging arenas move to the device instead, within the per-row GDS
  // bounce budget: one covering block (the row rounded up to 4 KiB, plus
  // 4 KiB) per ring slot and extractor. Device memory is not the limit
  // here, so the feature buffer keeps the staging path's size.
  ASSERT_EQ(gds.feature_buffer().num_slots(),
            standard.feature_buffer().num_slots());
  const std::uint64_t device_staging =
      gds.gpu()->allocated() - standard.gpu()->allocated();
  const std::uint64_t row_bytes = dataset->layout().feature_row_bytes;
  EXPECT_GT(device_staging, 0u);
  EXPECT_LE(device_staging, std::uint64_t{gds.effective_extractors()} *
                                gds.config().ring_depth *
                                (round_up(row_bytes, kPageSize) + kPageSize));
}

TEST_F(GdsFixture, DeviceCappedFeatureBufferLeavesActivationHeadroom) {
  // The device staging arenas are charged before the feature buffer is
  // sized. Allocated after a buffer sized to fill the device, they used to
  // take the headroom reserved for per-batch activations: construction or
  // the first trained batch ran out of device memory.
  auto env = make_env();
  GnnDriveConfig cfg = config();
  cfg.gpu.device_memory_bytes = 16ull << 20;
  cfg.feature_buffer_scale = 2.0;
  GnnDrive system(env.ctx, cfg);
  const std::uint64_t desired =
      (system.effective_extractors() + cfg.train_queue_cap) *
      system.max_batch_nodes() * 2;
  ASSERT_LT(system.feature_buffer().num_slots(), desired)
      << "the feature buffer must be capped by device memory";
  const EpochStats stats = system.run_epoch(0);
  EXPECT_EQ(stats.result.failed_batches, 0u);
  EXPECT_EQ(stats.result.trained_batches, stats.batches);
}

TEST_F(GdsFixture, TrainsToSameAccuracyAsStandardMode) {
  auto env_gds = make_env();
  GnnDrive gds(env_gds.ctx, config());
  for (int e = 0; e < 3; ++e) gds.run_epoch(e);
  const double gds_acc = gds.evaluate();

  auto env_std = make_env();
  GnnDriveConfig std_cfg = config();
  std_cfg.gds_mode = false;
  GnnDrive standard(env_std.ctx, std_cfg);
  for (int e = 0; e < 3; ++e) standard.run_epoch(e);
  const double std_acc = standard.evaluate();
  // Identical seeds + identical math: same trajectory up to reordering.
  EXPECT_NEAR(gds_acc, std_acc, 0.1);
  EXPECT_GT(gds_acc, 0.5);
}

TEST_F(GdsFixture, CpuTrainingRejected) {
  auto env = make_env();
  GnnDriveConfig cfg = config();
  cfg.cpu_training = true;
  EXPECT_DEATH(GnnDrive(env.ctx, cfg), "GDS mode requires GPU training");
}

}  // namespace
}  // namespace gnndrive
