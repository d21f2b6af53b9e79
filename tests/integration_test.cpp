// Cross-system integration tests on a contention-heavy configuration:
// the paper's qualitative claims, asserted with generous margins.
#include <gtest/gtest.h>

#include "baselines/pygplus.hpp"
#include "core/pipeline.hpp"

namespace gnndrive {
namespace {

// A mid-sized dataset whose features overflow the host budget: 20k nodes,
// dim 256 -> 20 MiB features + 2.4 MiB topology against a 12 MiB budget.
struct IntegrationFixture : ::testing::Test {
  static void SetUpTestSuite() {
    DatasetSpec spec;
    spec.name = "contention";
    spec.num_nodes = 20000;
    spec.num_edges = 300000;
    spec.feature_dim = 256;
    spec.num_classes = 8;
    spec.train_fraction = 0.04;
    spec.seed = 11;
    dataset = new Dataset(Dataset::build(spec));
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
  Env make_env(std::uint64_t host_bytes = 12ull << 20) {
    Env env;
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 40.0;
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
    c.sampler.fanouts = {10, 10};
    c.batch_seeds = 8;
    return c;
  }

  double warm_epoch_seconds(TrainSystem& system) {
    system.run_epoch(100);  // warm-up
    return system.run_epoch(0).epoch_seconds;
  }
};
Dataset* IntegrationFixture::dataset = nullptr;

TEST_F(IntegrationFixture, GnnDriveBeatsPygPlusUnderContention) {
  // The paper's headline: under memory pressure GNNDrive-GPU is several
  // times faster than PyG+. Assert a conservative 2x.
  //
  // Sanitizer slowdown shifts the compute/I/O balance (compute runs at
  // instrumented speed, the simulated devices on wall-clock), compressing
  // the speedup this test asserts — skip the ratio check there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "wall-clock speedup ratio; sanitizer slowdown distorts it";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  GTEST_SKIP() << "wall-clock speedup ratio; sanitizer slowdown distorts it";
#endif
#endif
  auto env1 = make_env();
  GnnDriveConfig gd_cfg;
  gd_cfg.common = common();
  GnnDrive gnndrive(env1.ctx, gd_cfg);
  const double gd = warm_epoch_seconds(gnndrive);

  auto env2 = make_env();
  PygPlusConfig pyg_cfg;
  pyg_cfg.common = common();
  PygPlus pyg(env2.ctx, pyg_cfg);
  const double pg = warm_epoch_seconds(pyg);

  EXPECT_GT(pg, 2.0 * gd) << "GNNDrive " << gd << "s vs PyG+ " << pg << "s";
}

TEST_F(IntegrationFixture, AsyncExtractionBeatsSyncAblation) {
  // Isolate asynchrony: one extractor, slow device, so extraction is on
  // the critical path. (With 4 extractors + light I/O, pipeline overlap
  // hides even synchronous loading — which is itself by design.)
  const auto run_with_depth = [&](unsigned depth) {
    Env env;
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 150.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(12ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), nullptr};
    GnnDriveConfig cfg;
    cfg.common = common();
    cfg.num_extractors = 1;
    cfg.ring_depth = depth;
    // Bare Mb reserve: the buffer cannot hold the whole graph, so every
    // epoch performs real loads (capacity misses) that depth must hide.
    cfg.feature_buffer_scale = 0.01;
    GnnDrive system(env.ctx, cfg);
    return warm_epoch_seconds(system);
  };
  const double async_s = run_with_depth(128);
  const double sync_s = run_with_depth(1);
  EXPECT_GT(sync_s, 2.0 * async_s)
      << "async " << async_s << "s vs sync " << sync_s << "s";
}

TEST_F(IntegrationFixture, DirectIoSparesPageCacheBufferedDoesNot) {
  auto env1 = make_env();
  GnnDriveConfig cfg;
  cfg.common = common();
  GnnDrive direct(env1.ctx, cfg);
  direct.run_epoch(0);
  const auto& lay = dataset->layout();
  const auto count_feature_pages = [&](PageCache& cache) {
    std::uint64_t n = 0;
    for (std::uint64_t p = lay.features_offset / kPageSize + 1;
         p < (lay.features_offset + lay.features_bytes - 1) / kPageSize;
         ++p) {
      if (cache.contains_page(p)) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_feature_pages(*env1.cache), 0u);

  auto env2 = make_env();
  cfg.direct_io = false;
  GnnDrive buffered(env2.ctx, cfg);
  buffered.run_epoch(0);
  EXPECT_GT(count_feature_pages(*env2.cache), 0u);
}

TEST_F(IntegrationFixture, SampleOnlyFasterThanFullPipelineSampling) {
  // GNNDrive's "-all" sampling time stays within a small factor of
  // "-only" (the paper's Fig. 2 for GNNDrive); PyG+'s blows up.
  auto run_sampling = [&](const char* which, bool sample_only) {
    auto env = make_env();
    CommonTrainConfig c = common();
    c.sample_only = sample_only;
    if (std::string(which) == "gnndrive") {
      GnnDriveConfig cfg;
      cfg.common = c;
      GnnDrive system(env.ctx, cfg);
      system.run_epoch(100);
      return system.run_epoch(0).sample_seconds;
    }
    PygPlusConfig cfg;
    cfg.common = c;
    PygPlus system(env.ctx, cfg);
    system.run_epoch(100);
    return system.run_epoch(0).sample_seconds;
  };
  const double gd_only = run_sampling("gnndrive", true);
  const double gd_all = run_sampling("gnndrive", false);
  const double pyg_only = run_sampling("pyg", true);
  const double pyg_all = run_sampling("pyg", false);
  // Contention ratio: PyG+ suffers far more than GNNDrive.
  EXPECT_GT(pyg_all / pyg_only, 2.0 * (gd_all / std::max(gd_only, 1e-9)));
}

TEST_F(IntegrationFixture, ExtractionCountsMatchDeviceTraffic) {
  // Every feature-buffer load is delivered by exactly one coalesced read
  // segment, and each segment is one direct SSD read (plus topology faults
  // through the page cache). With coalescing, reads sit well below loads.
  auto env = make_env(64ull << 20);  // ample memory: topo fully cached
  GnnDriveConfig cfg;
  cfg.common = common();
  GnnDrive system(env.ctx, cfg);
  system.run_epoch(100);  // warm: topology resident
  const auto reads_before = env.ssd->stats().reads;
  const auto loads_before = system.feature_buffer().stats().loads;
  const EpochStats stats = system.run_epoch(0);
  const auto loads = system.feature_buffer().stats().loads - loads_before;
  const auto reads = env.ssd->stats().reads - reads_before;
  EXPECT_EQ(stats.obs.io_rows, loads);  // every load rode exactly one segment
  EXPECT_LE(stats.obs.io_segments, loads);
  EXPECT_GE(reads, stats.obs.io_segments);  // one SSD read per segment
  EXPECT_LE(reads, stats.obs.io_segments + 200);  // residual topo faults
}

}  // namespace
}  // namespace gnndrive
