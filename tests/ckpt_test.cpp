// Checkpoint/recovery tests (src/ckpt, docs/recovery.md).
//
// The heart of the suite is the crash matrix: the writer is aborted at
// EVERY phase boundary of the atomic checkpoint protocol — including a torn
// mid-payload write — and training is resumed from whatever the crash left
// on disk. The acceptance bar is bit-exact determinism: the resumed run's
// per-batch loss trajectory must equal the uninterrupted same-seed run's,
// double-for-double, from the resume point to the end. Media corruption
// (bit flips, truncation) of the newest generation must fall back one
// generation and still satisfy the same bar.
//
// Bit-exactness needs in-order training, so the matrix runs the pipeline
// with one sampler and one extractor (multi-worker resume is exact in
// trained-batch count but approximate in order; see docs/recovery.md).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "serve/engine.hpp"
#include "util/crc32c.hpp"
#include "util/sectioned_file.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gnndrive-" + name;
  fs::remove_all(dir);
  return dir;
}

TEST(Crc32c, KnownAnswerAndIncremental) {
  // The canonical CRC32C check vector.
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  // Incremental form composes: crc(a+b) == crc(b, seed=crc(a)).
  const char* msg = "123456789";
  const std::uint32_t first = crc32c(msg, 4);
  EXPECT_EQ(crc32c(msg + 4, 5, first), 0xE3069283u);
  // One flipped bit changes the digest.
  char corrupted[] = "123456789";
  corrupted[3] ^= 0x01;
  EXPECT_NE(crc32c(corrupted, 9), 0xE3069283u);
}

// -- CheckpointManager unit tests (no pipeline) -----------------------------

ModelConfig small_model_config() {
  ModelConfig mc;
  mc.kind = ModelKind::kSage;
  mc.in_dim = 24;
  mc.hidden_dim = 8;
  mc.num_classes = 4;
  mc.num_layers = 2;
  return mc;
}

/// Fills params + optimizer tensors with a deterministic nontrivial pattern
/// so a roundtrip actually exercises every serialized byte.
void scribble_state(GnnModel& model, std::uint64_t salt) {
  std::uint64_t x = salt;
  for (Param* p : model.params()) {
    for (Tensor* t : {&p->value, &p->m, &p->v}) {
      float* data = t->data();
      for (std::uint64_t i = 0; i < t->size(); ++i) {
        x = splitmix64(x);
        data[i] = static_cast<float>(static_cast<std::int64_t>(x % 2000) -
                                     1000) /
                  997.0f;
      }
    }
  }
}

std::vector<std::vector<float>> snapshot_params(GnnModel& model) {
  std::vector<std::vector<float>> snap;
  for (Param* p : model.params()) {
    for (Tensor* t : {&p->value, &p->m, &p->v}) {
      snap.emplace_back(t->data(), t->data() + t->size());
    }
  }
  return snap;
}

struct CkptFixture {
  ModelConfig mc = small_model_config();
  GnnModel model{small_model_config()};
  Adam adam;
  ModelFingerprint fp = ModelFingerprint::from(small_model_config(), 99, 8);

  TrainCursor cursor(std::uint64_t epoch, std::uint64_t batch) const {
    TrainCursor c;
    c.epoch = epoch;
    c.next_batch = batch;
    c.trained_batches = epoch * 100 + batch;
    c.fingerprint = fp;
    Rng rng(epoch * 31 + batch);
    c.rng_streams.push_back(RngStream{0, rng.state()});
    return c;
  }
};

TEST(Checkpoint, WriteLoadRoundTripIsByteExact) {
  CkptFixture f;
  CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.dir = fresh_dir("roundtrip");
  CheckpointManager mgr(cfg);

  scribble_state(f.model, 0xAB);
  f.adam.set_timestep(1234);
  const auto before = snapshot_params(f.model);
  const TrainCursor cur = f.cursor(3, 17);
  const std::uint64_t gen = mgr.write(cur, f.model, f.adam);
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(mgr.manifest_generation(), 1u);

  // Clobber the live state, then restore.
  scribble_state(f.model, 0xCD);
  f.adam.set_timestep(0);
  auto loaded = mgr.load_latest(f.model, &f.adam, f.fp);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->fallbacks, 0u);
  EXPECT_EQ(loaded->cursor.epoch, 3u);
  EXPECT_EQ(loaded->cursor.next_batch, 17u);
  EXPECT_EQ(loaded->cursor.trained_batches, cur.trained_batches);
  ASSERT_EQ(loaded->cursor.rng_streams.size(), 1u);
  EXPECT_EQ(loaded->cursor.rng_streams[0].state, cur.rng_streams[0].state);
  EXPECT_EQ(f.adam.timestep(), 1234u);

  const auto after = snapshot_params(f.model);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(after[i].size(), before[i].size());
    EXPECT_EQ(std::memcmp(after[i].data(), before[i].data(),
                          before[i].size() * sizeof(float)),
              0)
        << "tensor " << i << " not byte-exact";
  }
}

TEST(Checkpoint, RetentionKeepsLastK) {
  CkptFixture f;
  CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.dir = fresh_dir("retention");
  cfg.keep_last = 2;
  CheckpointManager mgr(cfg);
  for (std::uint64_t g = 1; g <= 5; ++g) {
    EXPECT_EQ(mgr.write(f.cursor(0, g), f.model, f.adam), g);
  }
  EXPECT_EQ(mgr.generations(), (std::vector<std::uint64_t>{4, 5}));
  EXPECT_EQ(mgr.manifest_generation(), 5u);
}

TEST(Checkpoint, BitFlipFallsBackOneGeneration) {
  CkptFixture f;
  CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.dir = fresh_dir("bitflip");
  CheckpointManager mgr(cfg);
  scribble_state(f.model, 1);
  mgr.write(f.cursor(0, 4), f.model, f.adam);
  const auto good = snapshot_params(f.model);
  scribble_state(f.model, 2);
  mgr.write(f.cursor(0, 8), f.model, f.adam);
  ASSERT_TRUE(mgr.corrupt_flip_bit(2));

  scribble_state(f.model, 3);
  auto loaded = mgr.load_latest(f.model, &f.adam, f.fp);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->fallbacks, 1u);
  EXPECT_EQ(loaded->cursor.next_batch, 4u);
  EXPECT_EQ(snapshot_params(f.model), good);
}

TEST(Checkpoint, TruncationFallsBackOneGeneration) {
  CkptFixture f;
  CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.dir = fresh_dir("truncate");
  CheckpointManager mgr(cfg);
  mgr.write(f.cursor(0, 4), f.model, f.adam);
  mgr.write(f.cursor(0, 8), f.model, f.adam);
  ASSERT_TRUE(mgr.corrupt_truncate(2, 0.5));
  auto loaded = mgr.load_latest(f.model, &f.adam, f.fp);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->fallbacks, 1u);
}

TEST(Checkpoint, AllGenerationsCorruptMeansNoCheckpoint) {
  CkptFixture f;
  CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.dir = fresh_dir("all-corrupt");
  CheckpointManager mgr(cfg);
  mgr.write(f.cursor(0, 4), f.model, f.adam);
  mgr.write(f.cursor(0, 8), f.model, f.adam);
  ASSERT_TRUE(mgr.corrupt_flip_bit(1));
  ASSERT_TRUE(mgr.corrupt_truncate(2, 0.3));
  EXPECT_FALSE(mgr.load_latest(f.model, &f.adam, f.fp).has_value());
}

TEST(Checkpoint, FingerprintMismatchRefusesLoudly) {
  CkptFixture f;
  CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.dir = fresh_dir("fingerprint");
  CheckpointManager mgr(cfg);
  mgr.write(f.cursor(1, 2), f.model, f.adam);
  ModelFingerprint other = f.fp;
  other.run_seed ^= 1;  // a different run: silently adopting would corrupt it
  EXPECT_THROW(mgr.load_latest(f.model, &f.adam, other), std::runtime_error);
}

// A generation whose CRCs all hold but whose tensor counts claim more than
// the payload carries is corrupt like a torn one: load_latest falls back
// past it, counted in ckpt.fallbacks, without sizing anything from the
// counts.
TEST(Checkpoint, CrcValidOversizedCountsFallBack) {
  constexpr char kMagic[8] = {'G', 'N', 'N', 'D', 'C', 'K', 'P', '1'};
  constexpr std::uint32_t kSecMeta = 1;
  constexpr std::uint32_t kSecParams = 2;
  constexpr std::uint32_t kSecAdam = 3;
  // One 0xFFFFFFFF x 0xFFFFFFFF tensor in a 12-byte params payload, or in an
  // Adam payload behind its timestep.
  for (const std::uint32_t kind : {kSecParams, kSecAdam}) {
    SCOPED_TRACE(kind == kSecParams ? "params" : "adam");
    CkptFixture f;
    CheckpointConfig cfg;
    cfg.enabled = true;
    cfg.dir = fresh_dir("oversized-" + std::to_string(kind));
    scribble_state(f.model, 1);
    CheckpointManager(cfg).write(f.cursor(0, 4), f.model, f.adam);
    const auto good = snapshot_params(f.model);

    const TrainCursor cur = f.cursor(0, 8);
    SectionWriter w(kMagic, 2);
    w.begin(kSecMeta);
    w.put(cur.epoch);
    w.put(cur.next_batch);
    w.put(cur.trained_batches);
    w.put(cur.fingerprint);
    w.begin(kind);
    if (kind == kSecAdam) w.put(std::uint64_t{1});
    for (const std::uint32_t v : {1u, 0xFFFFFFFFu, 0xFFFFFFFFu}) w.put(v);
    commit_file(cfg.dir + "/ckpt-2.gnnd", w.finish(), /*sync=*/false);

    Telemetry telemetry;
    CheckpointManager mgr(cfg, &telemetry);
    scribble_state(f.model, 2);
    const auto loaded = mgr.load_latest(f.model, &f.adam, f.fp);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->generation, 1u);
    EXPECT_EQ(loaded->fallbacks, 1u);
    EXPECT_EQ(telemetry.metrics()->counter("ckpt.fallbacks").value(), 1u);
    EXPECT_EQ(snapshot_params(f.model), good);
  }
}

// Manager-level crash matrix: abort the writer at every phase boundary and
// assert the directory recovers to a valid generation — the previous one
// for crashes before the data rename, the new one at or after it.
TEST(Checkpoint, CrashMatrixRecoversAValidGeneration) {
  for (std::uint32_t ph = 0; ph < static_cast<std::uint32_t>(CkptPhase::kCount);
       ++ph) {
    const auto phase = static_cast<CkptPhase>(ph);
    SCOPED_TRACE(ckpt_phase_name(phase));
    CkptFixture f;
    CheckpointConfig cfg;
    cfg.enabled = true;
    cfg.dir = fresh_dir(std::string("crash-") + ckpt_phase_name(phase));
    CheckpointManager mgr(cfg);
    scribble_state(f.model, 10);
    mgr.write(f.cursor(0, 4), f.model, f.adam);  // generation 1 (intact)
    const auto gen1_params = snapshot_params(f.model);

    scribble_state(f.model, 20);
    const auto gen2_params = snapshot_params(f.model);
    CrashInjector injector(phase, /*at_generation=*/2);
    mgr.set_crash_injector(&injector);
    EXPECT_THROW(mgr.write(f.cursor(0, 8), f.model, f.adam), CrashInjected);
    EXPECT_TRUE(injector.fired());

    // "Reboot": a fresh manager over the same directory.
    CheckpointManager recovered(cfg);
    scribble_state(f.model, 30);
    auto loaded = recovered.load_latest(f.model, &f.adam, f.fp);
    ASSERT_TRUE(loaded.has_value());
    if (phase < CkptPhase::kAfterDataRename) {
      EXPECT_EQ(loaded->generation, 1u);
      EXPECT_EQ(loaded->cursor.next_batch, 4u);
      EXPECT_EQ(snapshot_params(f.model), gen1_params);
    } else {
      // The data file is complete even where the manifest is stale: the
      // loader prefers the newest file that validates.
      EXPECT_EQ(loaded->generation, 2u);
      EXPECT_EQ(loaded->cursor.next_batch, 8u);
      EXPECT_EQ(snapshot_params(f.model), gen2_params);
    }
    EXPECT_EQ(loaded->fallbacks, 0u);  // torn temps are ignored, not tried

    // The directory stays writable: the next generation lands after the
    // newest complete one and the stray temp files are swept.
    const std::uint64_t next = recovered.write(f.cursor(1, 0), f.model,
                                               f.adam);
    EXPECT_GT(next, loaded->generation);
    for (const auto& entry : fs::directory_iterator(cfg.dir)) {
      EXPECT_NE(entry.path().extension(), ".tmp");
    }
  }
}

// -- Pipeline-level crash matrix (the acceptance criterion) -----------------

struct CkptPipeline : ::testing::Test {
  static void SetUpTestSuite() {
    dataset = new Dataset(Dataset::build(toy_spec(/*feature_dim=*/32)));
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
    ssd_cfg.read_latency_us = 5.0;
    env.ssd = dataset->make_device(ssd_cfg);
    env.mem = std::make_unique<HostMemory>(256ull << 20);
    env.cache = std::make_unique<PageCache>(*env.mem, *env.ssd);
    env.telemetry = std::make_unique<Telemetry>();
    env.ctx = RunContext{dataset, env.ssd.get(), env.mem.get(),
                         env.cache.get(), env.telemetry.get()};
    return env;
  }

  /// Deterministic, in-order training: one sampler, one extractor, CPU
  /// training, per-batch loss recording. Bit-exact resume needs in-order
  /// Adam steps (docs/recovery.md).
  GnnDriveConfig deterministic_config() {
    GnnDriveConfig cfg;
    cfg.common.model.kind = ModelKind::kSage;
    cfg.common.model.hidden_dim = 8;
    cfg.common.sampler.fanouts = {5, 5};
    cfg.common.batch_seeds = 64;
    cfg.num_samplers = 1;
    cfg.num_extractors = 1;
    cfg.cpu_training = true;
    cfg.record_batch_losses = true;
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

  /// Uninterrupted same-seed run: per-epoch loss trajectories, the ground
  /// truth every crash/resume variant must reproduce exactly.
  std::vector<std::vector<double>> reference_losses(std::uint64_t epochs) {
    Env env = make_env();
    GnnDriveConfig cfg = deterministic_config();
    GnnDrive system(env.ctx, cfg);
    std::vector<std::vector<double>> losses;
    for (std::uint64_t e = 0; e < epochs; ++e) {
      losses.push_back(system.run_epoch(e).batch_losses);
    }
    return losses;
  }
};

Dataset* CkptPipeline::dataset = nullptr;

TEST_F(CkptPipeline, CrashMatrixResumesBitExact) {
  constexpr std::uint64_t kEpochs = 2;
  const auto reference = reference_losses(kEpochs);
  ASSERT_GE(reference[0].size(), 7u);  // enough batches for mid-epoch crashes

  for (std::uint32_t ph = 0; ph < static_cast<std::uint32_t>(CkptPhase::kCount);
       ++ph) {
    const auto phase = static_cast<CkptPhase>(ph);
    SCOPED_TRACE(ckpt_phase_name(phase));
    const std::string dir =
        fresh_dir(std::string("pipeline-crash-") + ckpt_phase_name(phase));

    GnnDriveConfig cfg = deterministic_config();
    cfg.ckpt.enabled = true;
    cfg.ckpt.dir = dir;
    cfg.ckpt.interval_batches = 2;
    // Generations 1 and 2 land intact (after batches 2 and 4); the writer
    // dies at this phase of generation 3 (after batch 6), aborting the
    // epoch exactly as a process death would.
    CrashInjector injector(phase, /*at_generation=*/3);

    Env env = make_env();
    {
      GnnDrive crashed(env.ctx, cfg);
      crashed.set_crash_injector(&injector);
      EXPECT_THROW(crashed.run_epoch(0), CrashInjected);
      EXPECT_TRUE(injector.fired());
    }  // the dead process: instance discarded with whatever it held

    // Reboot: a fresh pipeline adopts the newest valid generation...
    GnnDrive resumed(env.ctx, cfg);
    auto info = resumed.resume();
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->fallbacks, 0u);
    EXPECT_EQ(info->epoch, 0u);
    if (phase < CkptPhase::kAfterDataRename) {
      EXPECT_EQ(info->generation, 2u);
      EXPECT_EQ(info->next_batch, 4u);
    } else {
      EXPECT_EQ(info->generation, 3u);
      EXPECT_EQ(info->next_batch, 6u);
    }

    // ...and replays the rest of the run with a bit-exact loss trajectory.
    for (std::uint64_t e = info->epoch; e < kEpochs; ++e) {
      const EpochStats stats = resumed.run_epoch(e);
      const std::size_t skip = e == info->epoch ? info->next_batch : 0;
      ASSERT_EQ(stats.batch_losses.size(), reference[e].size() - skip);
      for (std::size_t b = 0; b < stats.batch_losses.size(); ++b) {
        EXPECT_EQ(stats.batch_losses[b], reference[e][skip + b])
            << "loss diverged at epoch " << e << " batch " << skip + b;
      }
    }
    expect_no_leaks(resumed);
  }
}

TEST_F(CkptPipeline, MediaCorruptionFallsBackAndResumesBitExact) {
  constexpr std::uint64_t kEpochs = 2;
  const auto reference = reference_losses(kEpochs);

  for (const bool flip : {true, false}) {
    SCOPED_TRACE(flip ? "bit-flip" : "truncate");
    const std::string dir =
        fresh_dir(std::string("pipeline-corrupt-") +
                  (flip ? "flip" : "trunc"));
    GnnDriveConfig cfg = deterministic_config();
    cfg.ckpt.enabled = true;
    cfg.ckpt.dir = dir;
    cfg.ckpt.interval_batches = 2;

    Env env = make_env();
    std::uint64_t newest = 0;
    {
      GnnDrive first(env.ctx, cfg);
      first.run_epoch(0);  // interval + boundary checkpoints
      newest = first.checkpoint_manager()->manifest_generation();
      ASSERT_GE(newest, 2u);
      // Media corruption hits the newest generation after the fact.
      if (flip) {
        ASSERT_TRUE(first.checkpoint_manager()->corrupt_flip_bit(newest));
      } else {
        ASSERT_TRUE(first.checkpoint_manager()->corrupt_truncate(newest, 0.6));
      }
    }

    GnnDrive resumed(env.ctx, cfg);
    auto info = resumed.resume();
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->generation, newest - 1);
    EXPECT_EQ(info->fallbacks, 1u);

    for (std::uint64_t e = info->epoch; e < kEpochs; ++e) {
      const EpochStats stats = resumed.run_epoch(e);
      const std::size_t skip = e == info->epoch ? info->next_batch : 0;
      ASSERT_EQ(stats.batch_losses.size(), reference[e].size() - skip);
      for (std::size_t b = 0; b < stats.batch_losses.size(); ++b) {
        EXPECT_EQ(stats.batch_losses[b], reference[e][skip + b]);
      }
    }
    expect_no_leaks(resumed);
  }
}

TEST_F(CkptPipeline, RequestStopDrainsCheckpointsAndResumesBitExact) {
  constexpr std::uint64_t kEpochs = 2;
  const auto reference = reference_losses(kEpochs);

  GnnDriveConfig cfg = deterministic_config();
  cfg.ckpt.enabled = true;

  // The stop request races the (fast) toy epoch; retry with a shorter delay
  // until it lands mid-epoch, which is the interesting drain path.
  Env env = make_env();
  std::uint64_t stopped_at = 0;
  bool caught_mid_epoch = false;
  for (int attempt = 0; attempt < 8 && !caught_mid_epoch; ++attempt) {
    cfg.ckpt.dir = fresh_dir("pipeline-stop");
    GnnDrive system(env.ctx, cfg);
    std::thread stopper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 + 3 * attempt));
      system.request_stop();
    });
    const EpochStats stats = system.run_epoch(0);
    stopper.join();
    // The drain must finish in-flight batches (no exception, no leak) and
    // the boundary checkpoint records the interruption point.
    expect_no_leaks(system);
    if (!stats.interrupted || stats.batch_losses.size() >= reference[0].size())
      continue;
    caught_mid_epoch = true;
    stopped_at = stats.batch_losses.size();
    // Losses trained before the stop already match the reference.
    for (std::size_t b = 0; b < stopped_at; ++b) {
      EXPECT_EQ(stats.batch_losses[b], reference[0][b]);
    }
  }
  if (!caught_mid_epoch) {
    GTEST_SKIP() << "every attempt finished before the stop request landed";
  }

  GnnDrive resumed(env.ctx, cfg);
  auto info = resumed.resume();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->epoch, 0u);
  EXPECT_EQ(info->next_batch, stopped_at);
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    const EpochStats stats = resumed.run_epoch(e);
    const std::size_t skip = e == 0 ? stopped_at : 0;
    ASSERT_EQ(stats.batch_losses.size(), reference[e].size() - skip);
    for (std::size_t b = 0; b < stats.batch_losses.size(); ++b) {
      EXPECT_EQ(stats.batch_losses[b], reference[e][skip + b]);
    }
  }
}

// -- Serve hot-swap ---------------------------------------------------------

TEST_F(CkptPipeline, ServeHotSwapDropsNoInflightRequests) {
  const std::string dir = fresh_dir("serve-hot-swap");
  GnnDriveConfig cfg = deterministic_config();
  cfg.ckpt.enabled = true;
  cfg.ckpt.dir = dir;

  Env env = make_env();
  GnnDrive system(env.ctx, cfg);
  system.run_epoch(0);  // boundary checkpoint -> generation >= 1
  const std::uint64_t newest = system.checkpoint_manager()
                                   ->manifest_generation();
  ASSERT_GE(newest, 1u);

  ServeConfig serve_cfg;
  serve_cfg.workers = 2;
  serve_cfg.max_batch = 8;
  serve_cfg.max_wait_us = 200.0;
  serve_cfg.slo.deadline_ms = 10000.0;  // generous: nothing sheds
  ServeEngine engine(env.ctx, serve_cfg, system);
  engine.start();

  // Stream requests while hot swaps land mid-flight: drain-and-swap must
  // resolve every admitted future, with zero drops.
  std::vector<std::future<InferResult>> futures;
  constexpr std::uint32_t kWaves = 8;
  constexpr std::uint32_t kPerWave = 24;
  for (std::uint32_t wave = 0; wave < kWaves; ++wave) {
    for (std::uint32_t i = 0; i < kPerWave; ++i) {
      futures.push_back(engine.submit(
          (wave * kPerWave + i) * 61 % dataset->spec().num_nodes));
    }
    EXPECT_EQ(engine.hot_swap_from(*system.checkpoint_manager(),
                                   system.fingerprint()),
              newest);
  }
  std::uint32_t resolved = 0;
  for (auto& f : futures) {
    const InferResult res = f.get();  // a dropped future would hang here
    EXPECT_EQ(res.status, InferStatus::kOk);
    ++resolved;
  }
  EXPECT_EQ(resolved, kWaves * kPerWave);
  EXPECT_EQ(engine.model_generation(), newest);
  engine.stop();
  expect_no_leaks(system);

  // A hot swap from an empty directory must leave the replicas untouched.
  CheckpointConfig empty_cfg;
  empty_cfg.enabled = true;
  empty_cfg.dir = fresh_dir("serve-hot-swap-empty");
  CheckpointManager empty(empty_cfg);
  EXPECT_EQ(engine.hot_swap_from(empty, system.fingerprint()), 0u);
  EXPECT_EQ(engine.model_generation(), newest);
}

// -- Kill-and-resume soak (slow label) --------------------------------------

struct CkptSoak : CkptPipeline {};

TEST_F(CkptSoak, KillAndResumeConvergesUnderSsdFaults) {
  constexpr std::uint64_t kTargetEpochs = 3;
  const std::string dir = fresh_dir("soak-kill-resume");

  // Multi-worker pipeline (approximate resume) with storage faults on top:
  // the soak asserts liveness and leak-freedom, not bit-exactness.
  GnnDriveConfig cfg;
  cfg.common.model.kind = ModelKind::kSage;
  cfg.common.model.hidden_dim = 8;
  cfg.common.sampler.fanouts = {5, 5};
  cfg.common.batch_seeds = 32;
  cfg.cpu_training = true;
  cfg.ckpt.enabled = true;
  cfg.ckpt.dir = dir;
  cfg.ckpt.interval_batches = 4;
  cfg.ckpt.keep_last = 3;

  Env env = make_env();
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.eio_probability = 0.002;
  faults.spike_probability = 0.01;
  faults.spike_multiplier = 5.0;
  env.ssd->set_fault_config(faults);

  std::uint64_t completed_epochs = 0;
  int rounds = 0;
  for (; rounds < 40 && completed_epochs < kTargetEpochs; ++rounds) {
    GnnDrive system(env.ctx, cfg);
    std::uint64_t first_epoch = 0;
    if (auto info = system.resume()) first_epoch = info->epoch;

    // The killer: request a drain shortly into the round, like an operator
    // bouncing the job. Some rounds finish first — also fine.
    std::thread killer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      system.request_stop();
    });
    for (std::uint64_t e = first_epoch; e < kTargetEpochs; ++e) {
      const EpochStats stats = system.run_epoch(e);
      if (stats.interrupted) break;
      completed_epochs = e + 1;
    }
    killer.join();
    expect_no_leaks(system);
  }
  EXPECT_EQ(completed_epochs, kTargetEpochs)
      << "made no steady progress across " << rounds << " kill/resume rounds";

  // The final state is adoptable and evaluates.
  GnnDrive final_system(env.ctx, cfg);
  ASSERT_TRUE(final_system.resume().has_value());
  const double acc = final_system.evaluate();
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace gnndrive
