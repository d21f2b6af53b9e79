// Baseline systems (PyG+, Ginex, MariusGNN): training progress, phase
// accounting, cache behaviour and simulated OOM failure modes.
#include <gtest/gtest.h>

#include "baselines/ginex.hpp"
#include "baselines/mariusgnn.hpp"
#include "baselines/pygplus.hpp"

namespace gnndrive {
namespace {

struct BaselineFixture : ::testing::Test {
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
    ssd_cfg.read_latency_us = 15.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(host_bytes);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), nullptr};
    return env;
  }

  CommonTrainConfig common() {
    CommonTrainConfig c;
    c.model.kind = ModelKind::kSage;
    c.model.hidden_dim = 16;
    c.sampler.fanouts = {5, 5, 5};
    c.batch_seeds = 16;
    return c;
  }
};
Dataset* BaselineFixture::dataset = nullptr;

TEST_F(BaselineFixture, PygPlusTrainsAndImproves) {
  auto env = make_env();
  PygPlusConfig cfg;
  cfg.common = common();
  PygPlus system(env.ctx, cfg);
  const EpochStats first = system.run_epoch(0);
  EpochStats last{};
  for (int e = 1; e < 4; ++e) last = system.run_epoch(e);
  EXPECT_GT(first.batches, 0u);
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GT(system.evaluate(), 0.4);
  EXPECT_GT(first.sample_seconds, 0.0);
  EXPECT_GT(first.extract_seconds, 0.0);
}

TEST_F(BaselineFixture, PygPlusUsesPageCacheForFeatures) {
  auto env = make_env();
  PygPlusConfig cfg;
  cfg.common = common();
  PygPlus system(env.ctx, cfg);
  system.run_epoch(0);
  // Feature pages must be resident in the page cache (mmap-based access).
  const auto& lay = dataset->layout();
  std::uint64_t feature_pages = 0;
  for (std::uint64_t p = lay.features_offset / kPageSize;
       p <= (lay.features_offset + lay.features_bytes - 1) / kPageSize;
       ++p) {
    if (env.cache->contains_page(p)) ++feature_pages;
  }
  EXPECT_GT(feature_pages, 0u);
}

TEST_F(BaselineFixture, PygPlusSampleOnlySkipsTraining) {
  auto env = make_env();
  PygPlusConfig cfg;
  cfg.common = common();
  cfg.common.sample_only = true;
  PygPlus system(env.ctx, cfg);
  const EpochStats stats = system.run_epoch(0);
  EXPECT_GT(stats.sample_seconds, 0.0);
  EXPECT_EQ(stats.extract_seconds, 0.0);
  EXPECT_EQ(stats.train_seconds, 0.0);
}

TEST_F(BaselineFixture, GinexTrainsAndImproves) {
  auto env = make_env();
  GinexConfig cfg;
  cfg.common = common();
  cfg.superbatch = 8;
  Ginex system(env.ctx, cfg);
  const EpochStats first = system.run_epoch(0);
  EpochStats last{};
  for (int e = 1; e < 4; ++e) last = system.run_epoch(e);
  EXPECT_GT(first.batches, 0u);
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GT(system.evaluate(), 0.4);
}

TEST_F(BaselineFixture, GinexCachesPinnedWithinBudget) {
  auto env = make_env();
  GinexConfig cfg;
  cfg.common = common();
  Ginex system(env.ctx, cfg);
  EXPECT_GT(system.feature_cache_rows(), 0u);
  // Neighbor + feature caches pinned: most of the budget is accounted.
  EXPECT_GT(env.mem->pinned(),
            static_cast<std::uint64_t>(0.3 * env.mem->budget()));
}

TEST_F(BaselineFixture, GinexSpillsSamplingResultsToSsd) {
  auto env = make_env();
  GinexConfig cfg;
  cfg.common = common();
  cfg.superbatch = 8;
  Ginex system(env.ctx, cfg);
  const SsdStats before = env.ssd->stats();
  system.run_epoch(0);
  // Superbatch sampling results were written to (and read back from) SSD.
  EXPECT_GT(env.ssd->stats().writes - before.writes, 0u);
  EXPECT_GT(env.ssd->stats().bytes_written - before.bytes_written, 0u);
}

TEST_F(BaselineFixture, MariusTrainsWithPrepPhase) {
  auto env = make_env();
  MariusConfig cfg;
  cfg.common = common();
  MariusGnn system(env.ctx, cfg);
  const EpochStats first = system.run_epoch(0);
  EXPECT_GT(first.prep_seconds, 0.0);
  EXPECT_GT(first.batches, 0u);
  EXPECT_LT(first.prep_seconds, first.epoch_seconds);
  EpochStats last{};
  for (int e = 1; e < 4; ++e) last = system.run_epoch(e);
  EXPECT_LT(last.loss, first.loss);
}

TEST_F(BaselineFixture, MariusBufferCapacityScalesWithMemory) {
  // Toy partitions are ~105 KB each; pick budgets that straddle P.
  auto small_env = make_env(1200ull << 10);
  auto large_env = make_env(64ull << 20);
  MariusConfig cfg;
  cfg.common = common();
  MariusGnn small(small_env.ctx, cfg);
  MariusGnn large(large_env.ctx, cfg);
  EXPECT_GT(large.buffer_capacity(), small.buffer_capacity());
}

TEST_F(BaselineFixture, MariusThrowsOOMWhenBufferTooSmall) {
  auto env = make_env(600ull << 10);
  MariusConfig cfg;
  cfg.common = common();
  EXPECT_THROW(MariusGnn(env.ctx, cfg), SimOutOfMemory);
}

TEST_F(BaselineFixture, MariusPartitionOfCoversAllNodes) {
  auto env = make_env();
  MariusConfig cfg;
  cfg.common = common();
  MariusGnn system(env.ctx, cfg);
  for (NodeId v = 0; v < dataset->spec().num_nodes; v += 97) {
    EXPECT_LT(system.partition_of(v), cfg.num_partitions);
  }
}

TEST_F(BaselineFixture, AllSystemsAgreeOnBatchCount) {
  const std::size_t expected = div_ceil(dataset->train_nodes().size(), 16);
  {
    auto env = make_env();
    PygPlusConfig cfg;
    cfg.common = common();
    PygPlus system(env.ctx, cfg);
    EXPECT_EQ(system.run_epoch(0).batches, expected);
  }
  {
    auto env = make_env();
    GinexConfig cfg;
    cfg.common = common();
    Ginex system(env.ctx, cfg);
    EXPECT_EQ(system.run_epoch(0).batches, expected);
  }
  // MariusGNN batches per partition group: count can differ by partition
  // remainders but total seeds covered must match.
  {
    auto env = make_env();
    MariusConfig cfg;
    cfg.common = common();
    MariusGnn system(env.ctx, cfg);
    EXPECT_GE(system.run_epoch(0).batches, expected);
  }
}

}  // namespace
}  // namespace gnndrive
