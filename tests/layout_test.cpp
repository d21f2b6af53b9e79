// Feature-layout compiler (src/layout): plan validation/serialization,
// offset-arithmetic overflow guards, image-rewrite byte preservation,
// packed-store prefetch shape, checkpoint layout-fingerprint enforcement,
// and the acceptance differential — trained batches and serve predictions
// byte-identical across identity/degree/hotness layouts, for the GNNDrive
// pipeline and every baseline that reads features.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <numeric>
#include <random>
#include <vector>

#include <unistd.h>

#include "baselines/ginex.hpp"
#include "baselines/mariusgnn.hpp"
#include "baselines/pygplus.hpp"
#include "cache/policy.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "layout/compiler.hpp"
#include "layout/plan.hpp"
#include "serve/engine.hpp"

namespace gnndrive {
namespace {

std::string fresh_dir(const char* tag) {
  static std::atomic<std::uint64_t> n{0};
  auto dir = std::filesystem::temp_directory_path() /
             ("gnndrive_layout_" + std::string(tag) + "_" +
              std::to_string(::getpid()) + "_" + std::to_string(n++));
  std::filesystem::remove_all(dir);
  return dir.string();
}

// Shared environment harness: SSD device + host memory + page cache over a
// dataset (same shape as the baseline/coalesce fixtures).
struct Env {
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<HostMemory> mem;
  std::unique_ptr<PageCache> cache;
  RunContext ctx;
};

Env make_env(const Dataset& ds, std::uint64_t host_bytes = 64ull << 20) {
  Env env;
  SsdConfig ssd_cfg;
  ssd_cfg.read_latency_us = 20.0;
  env.ssd = ds.make_device(ssd_cfg);
  env.mem = std::make_unique<HostMemory>(host_bytes);
  env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
  env.ctx = RunContext{&ds, env.ssd.get(), env.mem.get(), env.cache.get(),
                       nullptr};
  return env;
}

// -- Plan validation & serialization -----------------------------------------

TEST(LayoutPlan, IdentityValidatesAndFingerprintsZero) {
  const LayoutPlan plan = make_identity_plan(1000, 42);
  EXPECT_TRUE(plan.is_identity());
  EXPECT_TRUE(plan.validate());
  EXPECT_EQ(plan.fingerprint(), 0u);
  for (NodeId v = 0; v < 1000; ++v) {
    ASSERT_EQ(plan.perm[v], v);
    ASSERT_EQ(plan.inv[v], v);
  }
}

TEST(LayoutPlan, DegreeStrategyOrdersByInDegreeDescending) {
  const Dataset ds = Dataset::build(toy_spec(16));
  const LayoutPlan plan = plan_degree_layout(ds);
  ASSERT_TRUE(plan.validate());
  EXPECT_EQ(plan.strategy, LayoutStrategy::kDegree);
  EXPECT_NE(plan.fingerprint(), 0u);
  for (std::size_t r = 1; r < plan.inv.size(); ++r) {
    const auto prev = ds.in_degree(plan.inv[r - 1]);
    const auto cur = ds.in_degree(plan.inv[r]);
    ASSERT_GE(prev, cur) << "row " << r;
    if (prev == cur) {
      ASSERT_LT(plan.inv[r - 1], plan.inv[r]);
    }
  }
}

TEST(LayoutPlan, HotnessStrategyIsDeterministicAndValid) {
  const Dataset ds = Dataset::build(toy_spec(16));
  auto env = make_env(ds);
  HotnessProfileConfig profile;
  profile.sampler.fanouts = {5, 5};
  profile.presample_batches = 32;
  const LayoutPlan a = plan_hotness_layout(ds, *env.cache, profile);
  const LayoutPlan b = plan_hotness_layout(ds, *env.cache, profile);
  ASSERT_TRUE(a.validate());
  EXPECT_EQ(a.strategy, LayoutStrategy::kHotness);
  EXPECT_EQ(a.perm, b.perm);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), 0u);
}

TEST(LayoutPlan, SerializeRoundTripPreservesEverything) {
  const Dataset ds = Dataset::build(toy_spec(16));
  const LayoutPlan plan = plan_degree_layout(ds);
  const auto bytes = plan.serialize();
  LayoutPlan back;
  ASSERT_TRUE(LayoutPlan::deserialize(bytes.data(), bytes.size(), &back));
  EXPECT_EQ(back.strategy, plan.strategy);
  EXPECT_EQ(back.num_nodes, plan.num_nodes);
  EXPECT_EQ(back.dataset_seed, plan.dataset_seed);
  EXPECT_EQ(back.perm, plan.perm);
  EXPECT_EQ(back.inv, plan.inv);  // rebuilt, not stored
  EXPECT_EQ(back.fingerprint(), plan.fingerprint());
}

TEST(LayoutPlan, FileRoundTrip) {
  const Dataset ds = Dataset::build(toy_spec(16));
  const LayoutPlan plan = plan_degree_layout(ds);
  const std::string path = fresh_dir("planfile") + ".plan";
  ASSERT_TRUE(plan.save(path));
  LayoutPlan back;
  ASSERT_TRUE(LayoutPlan::load(path, &back));
  EXPECT_EQ(back.perm, plan.perm);
  std::filesystem::remove(path);
}

TEST(LayoutPlan, DeserializeRejectsNonBijectivePermutation) {
  LayoutPlan plan;
  plan.strategy = LayoutStrategy::kDegree;
  plan.num_nodes = 3;
  plan.perm = {0, 0, 2};  // duplicate row
  const auto bytes = plan.serialize();
  LayoutPlan out;
  EXPECT_FALSE(LayoutPlan::deserialize(bytes.data(), bytes.size(), &out));
}

TEST(LayoutPlan, RandomPermutationRoundTripFuzz) {
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId n = 1 + rng() % 3000;
    LayoutPlan plan;
    plan.strategy = LayoutStrategy::kHotness;
    plan.num_nodes = n;
    plan.profile_seed = rng();
    plan.perm.resize(n);
    std::iota(plan.perm.begin(), plan.perm.end(), NodeId{0});
    std::shuffle(plan.perm.begin(), plan.perm.end(), rng);
    plan.inv = invert_permutation(plan.perm);

    ASSERT_TRUE(plan.validate());
    // perm ∘ inv = id and inv ∘ perm = id.
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(plan.inv[plan.perm[v]], v);
      ASSERT_EQ(plan.perm[plan.inv[v]], v);
    }
    const auto bytes = plan.serialize();
    LayoutPlan back;
    ASSERT_TRUE(LayoutPlan::deserialize(bytes.data(), bytes.size(), &back));
    ASSERT_EQ(back.perm, plan.perm);
    ASSERT_EQ(back.inv, plan.inv);
    ASSERT_EQ(back.fingerprint(), plan.fingerprint());
  }
}

// -- Offset arithmetic: 64-bit safety at large NodeIds ------------------------

TEST(LayoutOffsets, NoThirtyTwoBitOverflowAtLargeNodeIds) {
  OnDiskLayout lay;
  lay.features_offset = 3ull << 20;
  lay.feature_row_bytes = 512;

  // 4e9 * 512 overflows uint32 arithmetic by far; the result must be exact.
  const NodeId big = 4'000'000'000u;
  EXPECT_EQ(lay.feature_offset_of(big),
            (3ull << 20) + 4'000'000'000ull * 512ull);
  EXPECT_EQ(lay.feature_row_of(big), 4'000'000'000ull);

  // Physical-row addressing at the top of the NodeId range.
  EXPECT_EQ(lay.feature_offset_of_row(0xFFFF'FFFFull),
            (3ull << 20) + 0xFFFF'FFFFull * 512ull);
}

TEST(LayoutOffsets, PermutedRowValuesUseSixtyFourBitArithmetic) {
  OnDiskLayout lay;
  lay.features_offset = 1ull << 20;
  lay.feature_row_bytes = 3072;  // mag240m-style unaligned row

  // A small permutation whose *values* sit near the top of the id space:
  // the multiply must widen before scaling by row_bytes.
  const std::vector<NodeId> perm = {0xFFFF'FFFEu, 7u, 0x8000'0000u};
  lay.row_perm = perm.data();
  EXPECT_EQ(lay.feature_row_of(0), 0xFFFF'FFFEull);
  EXPECT_EQ(lay.feature_offset_of(0),
            (1ull << 20) + 0xFFFF'FFFEull * 3072ull);
  EXPECT_EQ(lay.feature_offset_of(1), (1ull << 20) + 7ull * 3072ull);
  EXPECT_EQ(lay.feature_offset_of(2),
            (1ull << 20) + 0x8000'0000ull * 3072ull);
}

// -- DatasetSpec construction validation -------------------------------------

TEST(LayoutDatasetValidation, BuildRejectsMalformedSpecs) {
  DatasetSpec spec = toy_spec(16);
  spec.num_nodes = 0;
  EXPECT_THROW(Dataset::build(spec), std::invalid_argument);

  spec = toy_spec(16);
  spec.feature_dim = 0;
  EXPECT_THROW(Dataset::build(spec), std::invalid_argument);

  spec = toy_spec(16);
  spec.train_fraction = 0.0;
  EXPECT_THROW(Dataset::build(spec), std::invalid_argument);
  spec.train_fraction = -0.5;
  EXPECT_THROW(Dataset::build(spec), std::invalid_argument);
  spec.train_fraction = 1.5;
  EXPECT_THROW(Dataset::build(spec), std::invalid_argument);

  // The boundary cases stay valid.
  spec = toy_spec(16);
  spec.train_fraction = 1.0;
  spec.num_nodes = 4000;
  EXPECT_NO_THROW(Dataset::build(spec));
}

// -- Compile pass: byte preservation and composition -------------------------

TEST(LayoutCompile, EveryNodesRowSurvivesEveryStrategyTransition) {
  Dataset ds = Dataset::build(toy_spec(32));
  const NodeId n = ds.spec().num_nodes;
  const std::uint32_t dim = ds.spec().feature_dim;

  // Ground truth under the shipped identity layout.
  std::vector<float> truth(static_cast<std::size_t>(n) * dim);
  for (NodeId v = 0; v < n; ++v) ds.read_feature_row(v, &truth[v * dim]);
  std::vector<std::uint8_t> original_region(ds.layout().features_bytes);
  ds.image()->read(ds.layout().features_offset,
                   static_cast<std::uint32_t>(original_region.size()),
                   original_region.data());

  const auto check_all_rows = [&](const char* tag) {
    std::vector<float> row(dim);
    for (NodeId v = 0; v < n; ++v) {
      ds.read_feature_row(v, row.data());
      ASSERT_EQ(std::memcmp(row.data(), &truth[v * dim], dim * 4), 0)
          << tag << ": node " << v;
    }
  };

  auto env = make_env(ds);
  HotnessProfileConfig profile;
  profile.sampler.fanouts = {5, 5};
  profile.presample_batches = 32;

  // identity -> degree -> hotness -> identity, checking after each hop.
  auto degree = std::make_shared<const LayoutPlan>(plan_degree_layout(ds));
  auto stats = compile_layout(ds, degree);
  EXPECT_GT(stats.rows_moved, 0u);
  EXPECT_EQ(ds.layout().layout_fingerprint(), degree->fingerprint());
  check_all_rows("degree");

  auto hotness = std::make_shared<const LayoutPlan>(
      plan_hotness_layout(ds, *env.cache, profile));
  compile_layout(ds, hotness);
  EXPECT_EQ(ds.layout().layout_fingerprint(), hotness->fingerprint());
  check_all_rows("hotness");

  compile_layout(ds, nullptr);
  EXPECT_EQ(ds.layout().layout_fingerprint(), 0u);
  EXPECT_EQ(ds.layout().row_perm, nullptr);
  check_all_rows("back-to-identity");

  // Round-tripping restores the feature region bit-exactly.
  std::vector<std::uint8_t> region(original_region.size());
  ds.image()->read(ds.layout().features_offset,
                   static_cast<std::uint32_t>(region.size()), region.data());
  EXPECT_EQ(std::memcmp(region.data(), original_region.data(), region.size()),
            0);
}

TEST(LayoutCompile, RecompilingTheSamePlanIsANoOp) {
  Dataset ds = Dataset::build(toy_spec(32));
  auto degree = std::make_shared<const LayoutPlan>(plan_degree_layout(ds));
  const auto first = compile_layout(ds, degree);
  EXPECT_GT(first.rows_moved, 0u);
  const auto again = compile_layout(ds, degree);
  EXPECT_EQ(again.rows_moved, 0u);
  EXPECT_EQ(ds.layout().layout_fingerprint(), degree->fingerprint());
}

// -- Packed store: hot-set prefetch collapses to sequential reads ------------

TEST(LayoutCompile, PackedHotPrefetchUsesFarFewerReads) {
  Dataset ds = Dataset::build(toy_spec(128));  // 512 B aligned rows
  auto degree = std::make_shared<const LayoutPlan>(plan_degree_layout(ds));
  // The hot set = the 256 highest-degree nodes, i.e. the packed head.
  const std::vector<NodeId> hot(degree->inv.begin(), degree->inv.begin() + 256);
  const CoalesceConfig coalesce;

  const auto prefetch_reads = [&]() -> std::uint64_t {
    auto env = make_env(ds);
    FeatureBuffer fb(FeatureBufferConfig{512, ds.spec().feature_dim},
                     ds.spec().num_nodes);
    const std::uint64_t reads_before = env.ssd->stats().reads;
    const HotPrefetchStats st =
        prefetch_hot_rows(fb, hot, ds, *env.ssd, coalesce);
    EXPECT_EQ(st.rows, hot.size());
    // Pinned rows must be the node's true bytes under any layout.
    std::vector<float> truth(ds.spec().feature_dim);
    for (NodeId v : hot) {
      const SlotId slot = fb.hot_slot(v);
      EXPECT_NE(slot, kNoSlot);
      if (slot == kNoSlot) continue;
      ds.read_feature_row(v, truth.data());
      EXPECT_EQ(std::memcmp(fb.slot_data(slot), truth.data(),
                            ds.spec().feature_dim * 4),
                0)
          << "node " << v;
    }
    return env.ssd->stats().reads - reads_before;
  };

  const std::uint64_t identity_reads = prefetch_reads();
  compile_layout(ds, degree);
  const std::uint64_t packed_reads = prefetch_reads();

  // 256 contiguous 512 B rows = 128 KiB: one ~1 MiB segment.
  EXPECT_LE(packed_reads, 2u);
  EXPECT_LT(packed_reads, identity_reads);
}

// -- Checkpoint integration: resume refuses a mismatched layout --------------

TEST(LayoutCkpt, ResumeRefusesMismatchedLayoutAndAcceptsMatching) {
  Dataset ds = Dataset::build(toy_spec(32));
  auto degree = std::make_shared<const LayoutPlan>(plan_degree_layout(ds));
  compile_layout(ds, degree);

  const std::string dir = fresh_dir("ckpt");
  GnnDriveConfig cfg;
  cfg.common.model.hidden_dim = 16;
  cfg.common.sampler.fanouts = {5, 5};
  cfg.common.batch_seeds = 64;
  cfg.num_samplers = 1;
  cfg.num_extractors = 1;
  cfg.cpu_training = true;
  cfg.ckpt.enabled = true;
  cfg.ckpt.dir = dir;
  cfg.ckpt.fsync = false;

  {
    auto env = make_env(ds);
    GnnDrive system(env.ctx, cfg);
    system.run_epoch(0);
    system.checkpoint();
  }

  // Uncompile to identity: the checkpoint's layout fingerprint no longer
  // matches the image, so resume must refuse loudly.
  compile_layout(ds, nullptr);
  {
    auto env = make_env(ds);
    GnnDrive system(env.ctx, cfg);
    EXPECT_THROW(system.resume(), std::runtime_error);
  }

  // Recompile the same plan: resume proceeds.
  compile_layout(ds, degree);
  {
    auto env = make_env(ds);
    GnnDrive system(env.ctx, cfg);
    const auto info = system.resume();
    ASSERT_TRUE(info.has_value());
  }
  std::filesystem::remove_all(dir);
}

// -- Acceptance differential: byte-identical training across layouts ---------

class LayoutDifferential : public ::testing::Test {
 protected:
  // One dataset compiled in place between runs; each run gets a fresh
  // device/memory/system so only the physical layout differs.
  static void SetUpTestSuite() { dataset = new Dataset(Dataset::build(toy_spec(64))); }
  static void TearDownTestSuite() {
    delete dataset;
    dataset = nullptr;
  }

  static void compile_strategy(LayoutStrategy s) {
    Dataset& ds = *dataset;
    switch (s) {
      case LayoutStrategy::kIdentity:
        compile_layout(ds, nullptr);
        break;
      case LayoutStrategy::kDegree:
        compile_layout(ds, std::make_shared<const LayoutPlan>(
                               plan_degree_layout(ds)));
        break;
      case LayoutStrategy::kHotness: {
        auto env = make_env(ds);
        HotnessProfileConfig profile;
        profile.sampler.fanouts = {5, 5};
        profile.presample_batches = 32;
        compile_layout(ds, std::make_shared<const LayoutPlan>(
                               plan_hotness_layout(ds, *env.cache, profile)));
        break;
      }
    }
  }

  static constexpr LayoutStrategy kAll[3] = {LayoutStrategy::kIdentity,
                                             LayoutStrategy::kDegree,
                                             LayoutStrategy::kHotness};
  static Dataset* dataset;
};
Dataset* LayoutDifferential::dataset = nullptr;

TEST_F(LayoutDifferential, TrainBatchLossesBitIdenticalAcrossLayouts) {
  const auto run = [&]() {
    auto env = make_env(*dataset);
    GnnDriveConfig cfg;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5};
    cfg.common.batch_seeds = 32;
    cfg.num_samplers = 1;  // 1 sampler + 1 extractor + CPU = bit-exact order
    cfg.num_extractors = 1;
    cfg.cpu_training = true;
    cfg.record_batch_losses = true;
    GnnDrive system(env.ctx, cfg);
    return system.run_epoch(0).batch_losses;
  };

  std::vector<std::vector<double>> losses;
  for (const LayoutStrategy s : kAll) {
    compile_strategy(s);
    losses.push_back(run());
  }
  compile_strategy(LayoutStrategy::kIdentity);
  ASSERT_FALSE(losses[0].empty());
  EXPECT_EQ(losses[0], losses[1]);  // identity == degree, bit-exact
  EXPECT_EQ(losses[0], losses[2]);  // identity == hotness, bit-exact
}

TEST_F(LayoutDifferential, ServePredictionsIdenticalAcrossLayouts) {
  const auto run = [&]() {
    Dataset& ds = *dataset;
    auto env = make_env(ds);
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
    RunContext ctx{&ds, env.ssd.get(), env.mem.get(), env.cache.get(),
                   &telemetry};
    ServeConfig cfg;
    cfg.sampler.fanouts = {5, 5};
    cfg.workers = 1;
    cfg.max_batch = 8;
    cfg.max_wait_us = 200.0;
    cfg.slo.deadline_ms = 0.0;
    ServeEngine engine(ctx, cfg, ServeSubstrate{&fb, &model, nullptr, 0});
    std::vector<std::future<InferResult>> futures;
    for (NodeId v = 0; v < 64; ++v) futures.push_back(engine.submit(v * 50));
    engine.start();
    std::vector<std::int32_t> classes;
    for (auto& f : futures) {
      const InferResult r = f.get();
      EXPECT_EQ(static_cast<int>(r.status),
                static_cast<int>(InferStatus::kOk));
      classes.push_back(r.predicted_class);
    }
    engine.stop();
    return classes;
  };

  std::vector<std::vector<std::int32_t>> classes;
  for (const LayoutStrategy s : kAll) {
    compile_strategy(s);
    classes.push_back(run());
  }
  compile_strategy(LayoutStrategy::kIdentity);
  ASSERT_EQ(classes[0].size(), 64u);
  EXPECT_EQ(classes[0], classes[1]);
  EXPECT_EQ(classes[0], classes[2]);
}

TEST_F(LayoutDifferential, GinexLossIdenticalAcrossLayouts) {
  const auto run = [&]() {
    auto env = make_env(*dataset);
    GinexConfig cfg;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5};
    cfg.common.batch_seeds = 16;
    cfg.superbatch = 8;
    Ginex system(env.ctx, cfg);
    return system.run_epoch(0).loss;
  };
  std::vector<double> loss;
  for (const LayoutStrategy s : kAll) {
    compile_strategy(s);
    loss.push_back(run());
  }
  compile_strategy(LayoutStrategy::kIdentity);
  EXPECT_EQ(loss[0], loss[1]);
  EXPECT_EQ(loss[0], loss[2]);
}

TEST_F(LayoutDifferential, PygPlusLossIdenticalAcrossLayouts) {
  const auto run = [&]() {
    auto env = make_env(*dataset);
    PygPlusConfig cfg;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5};
    cfg.common.batch_seeds = 16;
    cfg.num_workers = 1;  // deterministic ready-queue (train) order
    PygPlus system(env.ctx, cfg);
    return system.run_epoch(0).loss;
  };
  std::vector<double> loss;
  for (const LayoutStrategy s : kAll) {
    compile_strategy(s);
    loss.push_back(run());
  }
  compile_strategy(LayoutStrategy::kIdentity);
  EXPECT_EQ(loss[0], loss[1]);
  EXPECT_EQ(loss[0], loss[2]);
}

TEST_F(LayoutDifferential, MariusPartitionsStayConsistentUnderPackedLayouts) {
  // MariusGNN partitions the *physical* store, so under a packed layout the
  // partition membership (and trajectory) legitimately differs — the
  // guarantee is structural: every node maps into a partition whose extent
  // contains its physical row, and training still makes progress.
  for (const LayoutStrategy s : kAll) {
    compile_strategy(s);
    auto env = make_env(*dataset);
    MariusConfig cfg;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {5, 5};
    cfg.common.batch_seeds = 16;
    cfg.num_partitions = 8;
    MariusGnn system(env.ctx, cfg);
    const Dataset& ds = *dataset;
    for (NodeId v = 0; v < ds.spec().num_nodes; v += 37) {
      const std::uint64_t row = ds.layout().feature_row_of(v);
      const std::uint32_t part = system.partition_of(v);
      const std::uint64_t part_rows =
          div_ceil(ds.spec().num_nodes, cfg.num_partitions);
      ASSERT_GE(row, static_cast<std::uint64_t>(part) * part_rows);
      ASSERT_LT(row, static_cast<std::uint64_t>(part + 1) * part_rows);
    }
    const EpochStats stats = system.run_epoch(0);
    EXPECT_GT(stats.batches, 0u);
    EXPECT_TRUE(std::isfinite(stats.loss));
  }
  compile_strategy(LayoutStrategy::kIdentity);
}

}  // namespace
}  // namespace gnndrive
