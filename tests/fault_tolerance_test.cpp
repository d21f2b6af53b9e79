// Fault-injection soak tests: the full GNNDrive pipeline against a
// misbehaving storage layer. The paper's experiments assume a healthy SSD;
// this suite asserts the robustness layer on top — injected EIOs and latency
// spikes are retried and recovered, stuck requests are detected by the stage
// watchdog, unrecoverable batches degrade gracefully with structured
// accounting, and no feature-buffer slot or reference ever leaks.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"

namespace gnndrive {
namespace {

// papers100m at mini scale (the dataset the paper leads with): large enough
// that an epoch issues tens of thousands of feature reads — a real soak for
// 1% fault rates — while still building in seconds.
struct FaultSoak : ::testing::Test {
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

  /// The registry's cross-stage fault.* counters.
  static std::uint64_t fault_count(const Env& env, const char* name) {
    return env.telemetry->metrics()->counter(name).value();
  }

  GnnDriveConfig base_config() {
    GnnDriveConfig cfg;
    cfg.common.model.kind = ModelKind::kSage;
    cfg.common.model.hidden_dim = 16;
    cfg.common.sampler.fanouts = {10, 10};
    cfg.common.batch_seeds = 64;
    return cfg;
  }

  // Post-epoch resource invariants: every reference released (ride
  // references included), every look-ahead hint dropped, every slot back on
  // the standby list — regardless of how many batches failed.
  static void expect_no_leaks(GnnDrive& system) {
    for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
      ASSERT_EQ(system.feature_buffer().entry(v).ref_count, 0u)
          << "leaked reference on node " << v;
      ASSERT_EQ(system.feature_buffer().entry(v).want, 0u)
          << "leaked look-ahead hint on node " << v;
    }
    EXPECT_EQ(system.feature_buffer().standby_size(),
              system.feature_buffer().num_slots());
  }

  // Every valid mapping-table entry holds exactly the on-disk feature row:
  // faults may fail loads, but they must never corrupt a successful one.
  static void expect_byte_exact_features(GnnDrive& system) {
    const auto dim = dataset->spec().feature_dim;
    std::vector<float> truth(dim);
    std::uint64_t checked = 0;
    for (NodeId v = 0; v < dataset->spec().num_nodes; ++v) {
      const auto e = system.feature_buffer().entry(v);
      if (!e.valid) continue;
      dataset->read_feature_row(v, truth.data());
      const float* got = system.feature_buffer().slot_data(e.slot);
      ASSERT_EQ(std::memcmp(got, truth.data(), dim * 4), 0)
          << "corrupt features for node " << v;
      ++checked;
    }
    EXPECT_GT(checked, 1000u);
  }
};
Dataset* FaultSoak::dataset = nullptr;

TEST_F(FaultSoak, CleanEpochReportsZeroFaults) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  const EpochStats stats = system.run_epoch(0);
  EXPECT_TRUE(stats.result.ok());
  EXPECT_EQ(stats.result.failed_batches, 0u);
  EXPECT_EQ(stats.result.trained_batches, stats.batches);
  EXPECT_EQ(stats.result.io_errors, 0u);
  EXPECT_EQ(stats.result.io_retries, 0u);
  EXPECT_EQ(stats.result.io_timeouts, 0u);
  EXPECT_EQ(fault_count(env, "fault.io_errors"), 0u);
  EXPECT_EQ(fault_count(env, "fault.failed_batches"), 0u);
  expect_no_leaks(system);
}

TEST_F(FaultSoak, EpochSurvivesEioAndLatencySpikes) {
  auto env = make_env();
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.eio_probability = 0.01;   // the ISSUE's 1% soak rate
  faults.spike_probability = 0.02;
  faults.spike_multiplier = 5.0;
  env.ssd->set_fault_config(faults);

  GnnDrive system(env.ctx, base_config());
  const EpochStats stats = system.run_epoch(0);

  // The epoch completes with every batch accounted for.
  EXPECT_GT(stats.batches, 10u);
  EXPECT_EQ(stats.result.trained_batches + stats.result.failed_batches,
            stats.batches);

  // At 1% over tens of thousands of reads, errors certainly occurred — and
  // the retry layer recovered them (4 consecutive EIOs at p=0.01 is ~1e-8,
  // so batch failures are overwhelmingly unlikely).
  EXPECT_GT(stats.result.io_errors, 0u);
  EXPECT_GT(stats.result.io_retries, 0u);
  EXPECT_GT(stats.result.io_recovered, 0u);
  EXPECT_GE(stats.result.io_retries, stats.result.io_recovered);
  EXPECT_EQ(stats.result.failed_batches, 0u);
  EXPECT_TRUE(stats.result.ok());
  EXPECT_GT(env.ssd->stats().injected_eio, 0u);
  EXPECT_GT(env.ssd->stats().injected_spikes, 0u);

  // Retries surface in telemetry too (the page cache's own retries for
  // sampling I/O land on top of the extract-stage count).
  EXPECT_GE(fault_count(env, "fault.io_retries"),
            stats.result.io_retries);
  EXPECT_GE(fault_count(env, "fault.io_errors"),
            stats.result.io_errors);

  expect_byte_exact_features(system);
  expect_no_leaks(system);
}

TEST_F(FaultSoak, WatchdogCancelsStuckRequestsWithinTimeout) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config();
  cfg.fault.request_timeout_ms = 25.0;  // detect fast, keep the test short

  GnnDrive system(env.ctx, cfg);
  // Warm the page cache with a clean epoch first: sampling faults topology
  // pages through synchronous reads, which recover from a stuck request only
  // via the device's slow self-cancel backstop — the watchdog under test
  // guards the extract stage's asynchronous reads.
  system.run_epoch(0);

  SsdFaultConfig faults;
  faults.enabled = true;
  faults.stuck_probability = 0.002;
  env.ssd->set_fault_config(faults);

  const TimePoint t0 = Clock::now();
  const EpochStats stats = system.run_epoch(1);
  const double elapsed = to_seconds(Clock::now() - t0);

  // The pipeline never deadlocked: each stuck request was cancelled within
  // the request timeout and retried. A generous wall-clock bound proves the
  // watchdog fired (an uncancelled stuck request would hang forever).
  EXPECT_EQ(stats.result.trained_batches + stats.result.failed_batches,
            stats.batches);
  EXPECT_GT(stats.result.io_timeouts, 0u);
  EXPECT_GT(env.ssd->stats().injected_stuck, 0u);
  EXPECT_GT(env.ssd->stats().cancelled, 0u);
  EXPECT_GE(fault_count(env, "fault.io_timeouts"), 1u);
  EXPECT_LT(elapsed, 120.0);

  expect_byte_exact_features(system);
  expect_no_leaks(system);

  // Nothing may be left pending on the device, or its destructor would
  // block: every stuck request was cancelled by the watchdog.
  env.ssd->drain();
}

TEST_F(FaultSoak, BadSectorRangeFailsOnlyAffectedBatches) {
  auto env = make_env();
  // A handful of permanently-bad feature rows: batches that sample one of
  // these nodes exhaust their retries and fail; the rest train normally.
  // Mid-range node ids: low ids are the synthetic graph's hubs, and a bad
  // hub row would fail every single batch.
  const auto& lay = dataset->layout();
  const std::uint64_t bad_row = dataset->spec().num_nodes / 2;
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back(
      {lay.features_offset + bad_row * lay.feature_row_bytes,
       lay.features_offset + (bad_row + 8) * lay.feature_row_bytes});
  env.ssd->set_fault_config(faults);

  GnnDriveConfig cfg = base_config();
  cfg.fault.backoff_initial_us = 10.0;  // fail fast; the range never heals
  GnnDrive system(env.ctx, cfg);
  const EpochStats stats = system.run_epoch(0);

  // Graceful degradation: failures are contained and accounted, the epoch
  // still completes and trains the unaffected majority.
  EXPECT_EQ(stats.result.trained_batches + stats.result.failed_batches,
            stats.batches);
  EXPECT_GT(stats.result.failed_batches, 0u);
  EXPECT_FALSE(stats.result.ok());
  EXPECT_GT(stats.result.trained_batches, 0u);
  EXPECT_GT(stats.result.io_errors, 0u);
  EXPECT_EQ(fault_count(env, "fault.failed_batches"),
            stats.result.failed_batches);

  expect_byte_exact_features(system);
  expect_no_leaks(system);
}

TEST_F(FaultSoak, ServingUnderBadSectorsDegradesWithoutPoisoningTraining) {
  auto env = make_env();
  // The same permanently-bad feature rows as BadSectorRangeFailsOnlyAffected-
  // Batches, but now an inference engine shares the feature buffer with a
  // concurrently-training epoch. Requests that need a bad row must fail
  // cleanly after exhausting serve-side retries; clean requests and the
  // training run itself must be unaffected, and no reference may leak on
  // either path.
  const auto& lay = dataset->layout();
  const std::uint64_t bad_row = dataset->spec().num_nodes / 2;
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back(
      {lay.features_offset + bad_row * lay.feature_row_bytes,
       lay.features_offset + (bad_row + 8) * lay.feature_row_bytes});
  env.ssd->set_fault_config(faults);

  GnnDriveConfig cfg = base_config();
  cfg.fault.backoff_initial_us = 10.0;  // the range never heals; fail fast
  GnnDrive system(env.ctx, cfg);

  ServeConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 256;
  scfg.max_batch = 4;
  scfg.slo.deadline_ms = 0.0;
  scfg.retry_delay_us = 10.0;
  ServeEngine engine(env.ctx, scfg, system);
  engine.start();

  EpochStats stats;
  std::thread trainer([&] { stats = system.run_epoch(0); });

  // Clean requests first (low-id seeds, far from the bad rows), then
  // requests aimed straight at the bad range.
  std::vector<std::future<InferResult>> good, bad;
  const NodeId n = dataset->spec().num_nodes;
  for (std::uint32_t i = 0; i < 64; ++i) {
    good.push_back(engine.submit((i * 7919u) % (n / 4)));
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    bad.push_back(engine.submit(static_cast<NodeId>(bad_row + i)));
  }
  trainer.join();
  std::uint32_t good_ok = 0;
  for (auto& f : good) good_ok += f.get().status == InferStatus::kOk ? 1 : 0;
  for (auto& f : bad) EXPECT_EQ(f.get().status, InferStatus::kFailed);
  engine.stop();

  // Serving degraded exactly where the disk is bad: the bad-seed batches
  // exhausted their retries (micro-batch failure granularity means a clean
  // request coalesced next to a bad row fails with it — hence the margin).
  const ServeReport rep = engine.report();
  EXPECT_GE(rep.failed, 8u);
  EXPECT_GT(rep.io_errors, 0u);
  EXPECT_GT(rep.io_retries, 0u);
  EXPECT_GT(good_ok, 48u);

  // Training was not poisoned by the failing serve batches: the epoch
  // completed with every batch accounted for and the unaffected majority
  // trained (training samples the bad rows too, so some of its own batches
  // may fail — that is BadSectorRange's territory, not serving's fault).
  EXPECT_EQ(stats.result.trained_batches + stats.result.failed_batches,
            stats.batches);
  EXPECT_GT(stats.result.trained_batches, 0u);

  expect_byte_exact_features(system);
  expect_no_leaks(system);
}

TEST_F(FaultSoak, FailFastAbortsTheEpoch) {
  auto env = make_env();
  const auto& lay = dataset->layout();
  SsdFaultConfig faults;
  faults.enabled = true;
  // Every feature read fails: without fail_fast this would degrade to an
  // all-failed epoch; with it, the first failed batch aborts.
  faults.bad_ranges.push_back(
      {lay.features_offset, lay.features_offset + lay.features_bytes});
  env.ssd->set_fault_config(faults);

  GnnDriveConfig cfg = base_config();
  cfg.fault.fail_fast = true;
  cfg.fault.backoff_initial_us = 10.0;
  GnnDrive system(env.ctx, cfg);
  EXPECT_THROW(system.run_epoch(0), std::runtime_error);
}


// Abort paths of every stage, on the instance that threw: the train
// pipeline aborted from its sampler, extractor and trainer, and a serve
// worker. The paper-default pipeline (4 samplers, 4 extractors, queues 6/4)
// fills its queues, so a dead stage leaves batches behind for the stage
// runner to dispose. Not a soak: these run in the fast label.
struct StageAbort : FaultSoak {
  static void set_bad_range(Env& env, std::uint64_t begin, std::uint64_t end) {
    SsdFaultConfig faults;
    faults.enabled = true;
    faults.bad_ranges.push_back({begin, end});
    env.ssd->set_fault_config(faults);
  }
  /// The first topology page: the hubs' adjacency, read by every batch.
  static void break_topology(Env& env) {
    const std::uint64_t at = dataset->layout().indices_offset;
    set_bad_range(env, at, at + kPageSize);
  }
  static std::int64_t gauge(const Env& env, const char* name) {
    return env.telemetry->metrics()->gauge(name).value();
  }

  /// After the abort: nothing held, and the same instance trains a whole
  /// clean epoch.
  static void expect_recovered(Env& env, GnnDrive& system) {
    expect_no_leaks(system);
    EXPECT_EQ(gauge(env, "io.staging_in_use"), 0);
    EXPECT_EQ(gauge(env, "pipeline.running"), 0);
    EXPECT_FALSE(env.telemetry->sampler()->running());
    env.ssd->set_fault_config(SsdFaultConfig{});
    const EpochStats next = system.run_epoch(1);
    EXPECT_GT(next.batches, 10u);
    EXPECT_EQ(next.result.trained_batches, next.batches);
    EXPECT_EQ(next.result.failed_batches, 0u);
    expect_no_leaks(system);
  }
};

TEST_F(StageAbort, SamplerFaultAbortsTheEpochWithoutLeaks) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config();
  cfg.fault.backoff_initial_us = 10.0;
  GnnDrive system(env.ctx, cfg);
  break_topology(env);  // the page cache throws once its retries run out
  EXPECT_THROW(system.run_epoch(0), std::runtime_error);
  expect_recovered(env, system);
}

TEST_F(StageAbort, ExtractorFailFastAbortsTheEpochWithoutLeaks) {
  auto env = make_env();
  GnnDriveConfig cfg = base_config();
  cfg.fault.fail_fast = true;
  cfg.fault.backoff_initial_us = 10.0;
  const auto& lay = dataset->layout();
  set_bad_range(env, lay.features_offset,
                lay.features_offset + 16 * lay.feature_row_bytes);  // hubs
  GnnDrive system(env.ctx, cfg);
  EXPECT_THROW(system.run_epoch(0), std::runtime_error);
  expect_recovered(env, system);
}

TEST_F(StageAbort, TrainerCrashAbortsTheEpochWithoutLeaks) {
  // The trainer dies in its third checkpoint while extractors are blocked
  // on a full training queue: the batches they hold and the ones the
  // trainer left queued must all give their references back.
  const std::string dir = ::testing::TempDir() + "gnndrive-stage-abort";
  std::filesystem::remove_all(dir);
  auto env = make_env();
  GnnDriveConfig cfg = base_config();
  cfg.ckpt.enabled = true;
  cfg.ckpt.dir = dir;
  cfg.ckpt.interval_batches = 2;
  cfg.ckpt.fsync = false;
  GnnDrive system(env.ctx, cfg);
  CrashInjector injector(CkptPhase::kAfterTempWrite, /*at_generation=*/3);
  system.set_crash_injector(&injector);
  EXPECT_THROW(system.run_epoch(0), CrashInjected);
  EXPECT_TRUE(injector.fired());
  expect_recovered(env, system);
  std::filesystem::remove_all(dir);
}

TEST_F(StageAbort, ServeWorkerFaultStopsTheEngineWithoutLeaks) {
  auto env = make_env();
  GnnDrive system(env.ctx, base_config());
  ServeConfig scfg;
  scfg.workers = 2;
  scfg.slo.deadline_ms = 0.0;
  ServeEngine engine(env.ctx, scfg, system);
  break_topology(env);
  engine.start();
  EXPECT_EQ(gauge(env, "serve.running"), 1);
  std::vector<std::future<InferResult>> pending;
  for (NodeId v = 0; v < 16; ++v) pending.push_back(engine.submit(v));
  EXPECT_THROW(engine.stop(), std::runtime_error);
  EXPECT_FALSE(engine.running());
  EXPECT_EQ(gauge(env, "serve.running"), 0);
  EXPECT_EQ(gauge(env, "serve.pinned"), 0);
  EXPECT_FALSE(env.telemetry->sampler()->running());
  expect_no_leaks(system);
}

}  // namespace
}  // namespace gnndrive
