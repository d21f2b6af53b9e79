// Multi-GPU data parallelism: replica lock-step, gradient equivalence,
// batch coverage and epoch aggregation.
#include <gtest/gtest.h>

#include "core/multi_gpu.hpp"

namespace gnndrive {
namespace {

struct MultiGpuFixture : ::testing::Test {
  static void SetUpTestSuite() {
    dataset = new Dataset(Dataset::build(toy_spec(64)));
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
    ssd_cfg.read_latency_us = 10.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(256ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), nullptr};
    return env;
  }

  MultiGpuConfig config(std::uint32_t replicas) {
    MultiGpuConfig cfg;
    cfg.replica.common.model.kind = ModelKind::kSage;
    cfg.replica.common.model.hidden_dim = 16;
    cfg.replica.common.sampler.fanouts = {4, 4, 4};
    cfg.replica.common.batch_seeds = 16;
    cfg.num_replicas = replicas;
    return cfg;
  }
};
Dataset* MultiGpuFixture::dataset = nullptr;

TEST_F(MultiGpuFixture, TwoReplicasTrainAndConverge) {
  auto env = make_env();
  MultiGpuGnnDrive system(env.ctx, config(2));
  const EpochStats first = system.run_epoch(0);
  EXPECT_GT(first.batches, 0u);
  EpochStats last{};
  for (int e = 1; e < 4; ++e) last = system.run_epoch(e);
  EXPECT_LT(last.loss, first.loss);
  EXPECT_GT(system.evaluate(), 0.4);
}

TEST_F(MultiGpuFixture, ReplicasStayInLockStep) {
  auto env = make_env();
  MultiGpuGnnDrive system(env.ctx, config(2));
  system.run_epoch(0);
  // Per-step gradient averaging from identical init keeps parameters
  // bitwise identical across replicas.
  auto& m0 = system.replica(0).model();
  auto& m1 = system.replica(1).model();
  for (std::size_t p = 0; p < m0.params().size(); ++p) {
    const Tensor& a = m0.params()[p]->value;
    const Tensor& b = m1.params()[p]->value;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i]) << "param " << p << " idx " << i;
    }
  }
}

TEST_F(MultiGpuFixture, BatchCountsEqualAcrossReplicas) {
  auto env = make_env();
  MultiGpuGnnDrive system(env.ctx, config(3));
  const EpochStats stats = system.run_epoch(0);
  // Aggregated count is replicas x equal per-replica count.
  EXPECT_EQ(stats.batches % 3, 0u);
  EXPECT_GT(stats.batches, 0u);
}

TEST_F(MultiGpuFixture, FailingReplicaThrowsInsteadOfAborting) {
  auto env = make_env();
  // Low node ids are the synthetic graph's hubs: a bad range over their
  // feature rows fails every batch of every replica.
  const auto& lay = dataset->layout();
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back(
      {lay.features_offset, lay.features_offset + 16 * lay.feature_row_bytes});
  env.ssd->set_fault_config(faults);
  MultiGpuConfig cfg = config(2);
  cfg.replica.fault.fail_fast = true;
  cfg.replica.fault.backoff_initial_us = 10.0;
  MultiGpuGnnDrive system(env.ctx, cfg);
  EXPECT_THROW(system.run_epoch(0), std::runtime_error);
  // Each replica's aborted pipeline gave every reference back.
  for (std::uint32_t r = 0; r < system.num_replicas(); ++r) {
    FeatureBuffer& fb = system.replica(r).feature_buffer();
    for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
      ASSERT_EQ(fb.entry(v).ref_count, 0u) << "replica " << r << " node " << v;
    }
    EXPECT_EQ(fb.standby_size(), fb.num_slots()) << "replica " << r;
  }

  // The failed epoch left no hook on the dead barrier: a replica trains on
  // its own, and the group trains together once the device heals.
  env.ssd->set_fault_config(SsdFaultConfig{});
  EXPECT_GT(system.replica(0).run_epoch(1).result.trained_batches, 0u);
  EXPECT_GT(system.run_epoch(2).batches, 0u);
}

TEST_F(MultiGpuFixture, SingleReplicaMatchesPlainPipeline) {
  auto env = make_env();
  MultiGpuGnnDrive system(env.ctx, config(1));
  const EpochStats stats = system.run_epoch(0);
  const std::size_t expected = div_ceil(dataset->train_nodes().size(), 16);
  EXPECT_EQ(stats.batches, expected);
}

}  // namespace
}  // namespace gnndrive
