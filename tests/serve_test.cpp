// GNNDrive-Serve: admission control, micro-batch coalescing, deadline
// shedding, pin-budget safety and train+serve feature-buffer sharing.
#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"

namespace gnndrive {
namespace {

// -- Fast tests: standalone serving over a toy dataset ----------------------

struct ServeFixture : ::testing::Test {
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
    std::unique_ptr<Telemetry> telemetry;
    std::unique_ptr<FeatureBuffer> fb;
    std::unique_ptr<GnnModel> model;
    RunContext ctx;
  };
  // Standalone serving substrate: no training pipeline, a host feature
  // buffer and a fresh model (serving is forward-only; random parameters
  // are fine for plumbing tests).
  Env make_env(std::uint64_t fb_slots = 2048) {
    Env env;
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(64ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.telemetry = std::make_unique<Telemetry>();
    env.fb = std::make_unique<FeatureBuffer>(
        FeatureBufferConfig{fb_slots, dataset->spec().feature_dim},
        dataset->spec().num_nodes, env.telemetry.get());
    ModelConfig mc;
    mc.kind = ModelKind::kSage;
    mc.in_dim = dataset->spec().feature_dim;
    mc.hidden_dim = 16;
    mc.num_classes = dataset->spec().num_classes;
    mc.num_layers = 2;
    env.model = std::make_unique<GnnModel>(mc);
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), env.telemetry.get()};
    return env;
  }

  ServeConfig base_config() {
    ServeConfig cfg;
    cfg.sampler.fanouts = {5, 5};
    cfg.workers = 1;
    cfg.max_batch = 8;
    cfg.max_wait_us = 200.0;
    cfg.slo.deadline_ms = 0.0;  // most tests want deterministic completion
    return cfg;
  }

  static ServeSubstrate substrate(Env& env, std::uint64_t reserved = 0) {
    return ServeSubstrate{env.fb.get(), env.model.get(), nullptr, reserved};
  }

  static void expect_no_leaks(Env& env) {
    for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
      ASSERT_EQ(env.fb->entry(v).ref_count, 0u)
          << "leaked reference on node " << v;
    }
    EXPECT_EQ(env.fb->standby_size(), env.fb->num_slots());
  }
};
Dataset* ServeFixture::dataset = nullptr;

TEST_F(ServeFixture, ServesSingleRequest) {
  auto env = make_env();
  ServeEngine engine(env.ctx, base_config(), substrate(env));
  engine.start();
  auto fut = engine.submit(3);
  const InferResult res = fut.get();
  engine.stop();

  EXPECT_EQ(res.status, InferStatus::kOk);
  EXPECT_GE(res.predicted_class, 0);
  EXPECT_LT(res.predicted_class,
            static_cast<std::int32_t>(dataset->spec().num_classes));
  EXPECT_GE(res.total_us, 0.0);
  EXPECT_GE(res.total_us, res.queue_us);
  EXPECT_EQ(res.coalesced_with, 1u);

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.submitted, 1u);
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.failed + rep.rejected + rep.shed_deadline, 0u);
  EXPECT_EQ(rep.latency.count, 1u);
  expect_no_leaks(env);
}

TEST_F(ServeFixture, CoalescesBacklogIntoMicroBatches) {
  auto env = make_env();
  ServeConfig cfg = base_config();
  cfg.queue_capacity = 64;
  ServeEngine engine(env.ctx, cfg, substrate(env));

  // Queue a burst before the workers run: every collect() then finds a full
  // window, so batches reach max_batch and the coalesce factor shows it.
  std::vector<std::future<InferResult>> futs;
  for (NodeId v = 0; v < 32; ++v) futs.push_back(engine.submit(v % 16));
  engine.start();
  for (auto& f : futs) EXPECT_EQ(f.get().status, InferStatus::kOk);
  engine.stop();

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.completed, 32u);
  EXPECT_LE(rep.batches, 8u);  // 32 requests / max_batch 8 = 4 ideal
  EXPECT_GE(rep.coalesce_factor, 2.0);
  expect_no_leaks(env);
}

TEST_F(ServeFixture, DuplicateSeedsShareOneBatchAndAgree) {
  auto env = make_env();
  ServeConfig cfg = base_config();
  ServeEngine engine(env.ctx, cfg, substrate(env));
  auto f1 = engine.submit(7);
  auto f2 = engine.submit(7);  // same node, coalesces into the same batch
  engine.start();
  const InferResult r1 = f1.get();
  const InferResult r2 = f2.get();
  engine.stop();
  EXPECT_EQ(r1.status, InferStatus::kOk);
  EXPECT_EQ(r2.status, InferStatus::kOk);
  // Same deduped seed row -> identical prediction.
  EXPECT_EQ(r1.predicted_class, r2.predicted_class);
  expect_no_leaks(env);
}

TEST_F(ServeFixture, AdmissionShedsBeyondQueueCapacity) {
  auto env = make_env();
  ServeConfig cfg = base_config();
  cfg.queue_capacity = 4;
  ServeEngine engine(env.ctx, cfg, substrate(env));

  // Workers not started: the 5th submit onward finds the queue full and is
  // rejected immediately on the submitting thread.
  std::vector<std::future<InferResult>> futs;
  for (NodeId v = 0; v < 10; ++v) futs.push_back(engine.submit(v));
  std::uint32_t rejected = 0;
  for (std::size_t i = 4; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const InferResult res = futs[i].get();
    EXPECT_EQ(res.status, InferStatus::kRejected);
    EXPECT_EQ(res.predicted_class, -1);
    ++rejected;
  }
  EXPECT_EQ(rejected, 6u);

  engine.start();  // drain the admitted backlog
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(futs[i].get().status, InferStatus::kOk);
  }
  engine.stop();

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.submitted, 10u);
  EXPECT_EQ(rep.rejected, 6u);
  EXPECT_EQ(rep.completed, 4u);
  expect_no_leaks(env);
}

TEST_F(ServeFixture, ShedsRequestsWhoseDeadlineExpiredInQueue) {
  auto env = make_env();
  ServeConfig cfg = base_config();
  cfg.slo.deadline_ms = 1.0;
  ServeEngine engine(env.ctx, cfg, substrate(env));

  std::vector<std::future<InferResult>> futs;
  for (NodeId v = 0; v < 6; ++v) futs.push_back(engine.submit(v));
  // Let every deadline expire while the queue sits unserved, then start.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.start();
  for (auto& f : futs) {
    const InferResult res = f.get();
    EXPECT_EQ(res.status, InferStatus::kShedDeadline);
    EXPECT_EQ(res.predicted_class, -1);
  }
  engine.stop();

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.shed_deadline, 6u);
  EXPECT_EQ(rep.completed, 0u);
  // Shed requests never touched the feature buffer.
  EXPECT_EQ(env.fb->stats().lookups(), 0u);
  expect_no_leaks(env);
}

TEST_F(ServeFixture, DisabledDeadlineServesLateRequests) {
  auto env = make_env();
  ServeConfig cfg = base_config();
  cfg.slo.deadline_ms = 0.0;  // explicit: no deadline
  ServeEngine engine(env.ctx, cfg, substrate(env));
  auto fut = engine.submit(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.start();
  EXPECT_EQ(fut.get().status, InferStatus::kOk);
  engine.stop();
}

TEST_F(ServeFixture, OverBudgetBatchFailsCleanlyInsteadOfDeadlocking) {
  // 16 slots total and fanouts (5,5): a full micro-batch of 8 distinct
  // seeds expands far beyond the whole serve share. The engine must fail
  // the batch without ever calling check_and_ref (waiting for 16+ pins
  // that can never exist would deadlock instead).
  auto env = make_env(/*fb_slots=*/16);
  ServeEngine engine(env.ctx, base_config(), substrate(env));
  std::vector<std::future<InferResult>> futs;
  for (NodeId v = 0; v < 8; ++v) futs.push_back(engine.submit(v));
  engine.start();
  for (auto& f : futs) {
    EXPECT_EQ(f.get().status, InferStatus::kFailed);
  }
  engine.stop();
  EXPECT_EQ(env.fb->stats().lookups(), 0u);
  expect_no_leaks(env);
}

TEST_F(ServeFixture, SubmitAfterStopRejects) {
  auto env = make_env();
  ServeEngine engine(env.ctx, base_config(), substrate(env));
  engine.start();
  EXPECT_EQ(engine.submit(2).get().status, InferStatus::kOk);
  engine.stop();
  EXPECT_EQ(engine.submit(3).get().status, InferStatus::kRejected);
}

TEST_F(ServeFixture, RefreshParamsTracksTheSourceModel) {
  auto env = make_env();
  ServeEngine engine(env.ctx, base_config(), substrate(env));
  engine.start();
  const std::int32_t before = engine.submit(9).get().predicted_class;
  // Perturb the source parameters; the replicas only see them after an
  // explicit refresh.
  for (Param* p : env.model->params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] = -p->value.data()[i];
    }
  }
  engine.refresh_params();
  const std::int32_t after = engine.submit(9).get().predicted_class;
  engine.stop();
  (void)before;
  (void)after;  // predictions may or may not change; serving must survive
  expect_no_leaks(env);
}

TEST_F(ServeFixture, PublishesServeMetrics) {
  auto env = make_env();
  ServeEngine engine(env.ctx, base_config(), substrate(env));
  engine.start();
  std::vector<std::future<InferResult>> futs;
  for (NodeId v = 0; v < 12; ++v) futs.push_back(engine.submit(v));
  for (auto& f : futs) f.get();
  engine.stop();

  MetricsRegistry& reg = *env.telemetry->metrics();
  EXPECT_EQ(reg.counter("serve.submitted").value(), 12u);
  EXPECT_EQ(reg.counter("serve.completed").value(), 12u);
  EXPECT_GT(reg.histogram("serve.batch.size").count(), 0u);
  EXPECT_EQ(reg.histogram("serve.latency.us").count(), 12u);
  EXPECT_GT(reg.histogram("serve.extract.us").count(), 0u);
  EXPECT_GT(reg.histogram("serve.infer.us").count(), 0u);
  EXPECT_EQ(reg.gauge("serve.pinned").value(), 0);  // all pins returned
  EXPECT_GT(reg.gauge("serve.pinned").max(), 0);
}

TEST_F(ServeFixture, RecordsServeSpansWhileTracing) {
  auto env = make_env();
  env.telemetry->set_tracing(true);
  ServeEngine engine(env.ctx, base_config(), substrate(env));
  engine.start();
  engine.submit(5).get();
  engine.stop();
  env.telemetry->set_tracing(false);

  bool saw_sample = false, saw_extract = false, saw_infer = false;
  for (const SpanRecord& s : env.telemetry->tracer()->spans()) {
    if (std::string(s.name) == kSpanServeSample) saw_sample = true;
    if (std::string(s.name) == kSpanServeExtract) saw_extract = true;
    if (std::string(s.name) == kSpanServeInfer) saw_infer = true;
  }
  EXPECT_TRUE(saw_sample);
  EXPECT_TRUE(saw_extract);
  EXPECT_TRUE(saw_infer);
}

// -- Soak: train + serve sharing one feature buffer (papers100m-mini) -------

struct ServeSoak : ::testing::Test {
  static void SetUpTestSuite() {
    dataset = new Dataset(Dataset::build(mini_spec("papers100m-mini")));
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
    std::unique_ptr<Telemetry> telemetry;
    RunContext ctx;
  };
  Env make_env() {
    Env env;
    SsdConfig ssd_cfg;
    ssd_cfg.read_latency_us = 20.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(256ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.telemetry = std::make_unique<Telemetry>();
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), env.telemetry.get()};
    return env;
  }

  GnnDriveConfig train_config() {
    GnnDriveConfig cfg;
    cfg.common.model.kind = ModelKind::kSage;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {10, 10};
    cfg.common.batch_seeds = 64;
    return cfg;
  }

  static void expect_no_leaks(GnnDrive& system) {
    for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
      ASSERT_EQ(system.feature_buffer().entry(v).ref_count, 0u)
          << "leaked reference on node " << v;
    }
    EXPECT_EQ(system.feature_buffer().standby_size(),
              system.feature_buffer().num_slots());
  }
};
Dataset* ServeSoak::dataset = nullptr;

TEST_F(ServeSoak, ConcurrentTrainingAndServingShareTheFeatureBuffer) {
  auto env = make_env();
  GnnDrive system(env.ctx, train_config());

  ServeConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 512;
  scfg.max_batch = 8;
  scfg.max_wait_us = 300.0;
  scfg.slo.deadline_ms = 0.0;  // deterministic: nothing shed
  ServeEngine engine(env.ctx, scfg, system);
  EXPECT_GT(engine.pin_budget(), 0u);
  engine.start();

  // Training runs a full epoch while requests arrive; both sides contend
  // for the same feature buffer, staging budget and SSD.
  EpochStats stats;
  std::thread trainer([&] { stats = system.run_epoch(0); });

  std::vector<std::future<InferResult>> futs;
  const NodeId n = dataset->spec().num_nodes;
  for (std::uint32_t i = 0; i < 300; ++i) {
    futs.push_back(engine.submit((i * 7919u) % n));
    if (i % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  trainer.join();
  std::uint32_t ok = 0;
  for (auto& f : futs) ok += f.get().status == InferStatus::kOk ? 1 : 0;
  engine.stop();

  // Training was not poisoned by serving...
  EXPECT_TRUE(stats.result.ok());
  EXPECT_EQ(stats.result.trained_batches, stats.batches);
  // ...and serving completed everything it admitted.
  const ServeReport rep = engine.report();
  EXPECT_EQ(ok + rep.rejected, 300u);
  EXPECT_EQ(rep.completed, ok);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_GT(rep.completed, 0u);
  // Shared-buffer payoff: serving found some features already resident.
  EXPECT_GT(rep.fb_hit_rate, 0.0);

  expect_no_leaks(system);
}

TEST_F(ServeSoak, ServingAfterTrainingReusesResidentFeatures) {
  auto env = make_env();
  GnnDrive system(env.ctx, train_config());
  system.run_epoch(0);  // warm the feature buffer

  ServeConfig scfg;
  scfg.workers = 2;
  scfg.max_batch = 8;
  scfg.slo.deadline_ms = 0.0;
  ServeEngine engine(env.ctx, scfg, system);
  engine.start();
  std::vector<std::future<InferResult>> futs;
  const NodeId n = dataset->spec().num_nodes;
  for (std::uint32_t i = 0; i < 128; ++i) {
    futs.push_back(engine.submit((i * 131u) % n));
  }
  for (auto& f : futs) EXPECT_EQ(f.get().status, InferStatus::kOk);
  engine.stop();

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.completed, 128u);
  // A trained-on buffer serves many lookups without touching the SSD.
  EXPECT_GT(rep.fb_hit_rate, 0.2);
  expect_no_leaks(system);
}

}  // namespace
}  // namespace gnndrive
