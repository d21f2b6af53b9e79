// Crash-safe checkpoint/restore for the training pipeline.
//
// A checkpoint is one generation-numbered file of CRC32C-checksummed
// sections (meta cursor, model parameters, Adam state, RNG streams, hot set,
// layout fingerprint) in the sectioned format of util/sectioned_file, plus
// a tiny manifest naming the newest complete generation. Durability follows
// the classic atomic protocol, each file committed by commit_file:
//
//   write ckpt-<gen>.tmp -> fsync(file) -> rename to ckpt-<gen>.gnnd
//   -> fsync(dir) -> write MANIFEST.tmp -> fsync -> rename -> fsync(dir)
//   -> prune generations beyond keep_last
//
// A crash at ANY point of that sequence leaves the directory recoverable:
// either the previous generation is intact (temp files are ignored), or the
// new generation is complete and the loader adopts it with or without the
// manifest update (the loader prefers the newest file that validates, so a
// crash between the data rename and the manifest rename loses nothing).
// Torn or bit-flipped files fail their section CRCs, files whose counts or
// shapes exceed their payload or differ from the model fail the reader's
// bounds checks, and the loader falls back one generation at a time until
// a record set validates.
//
// Robustness is proven, not assumed: CrashInjector (the checkpoint-side
// sibling of the storage FaultInjector) aborts the writer at every phase
// boundary, and tests/ckpt_test.cpp replays the full crash matrix,
// asserting a bit-exact loss trajectory after resume (docs/recovery.md).
//
// Checkpoints are written to the host filesystem, not the simulated SSD:
// training state durability is an orthogonal concern to the feature-I/O
// path the paper models, exactly as in real disk-based GNN systems where
// checkpoints go to a separate durable volume.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gnn/model.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace gnndrive {

class Telemetry;

/// Checkpoint span name (Chrome-trace row; batch id carries the generation).
inline constexpr const char* kSpanCkptWrite = "ckpt.write";

/// Writer phase boundaries, in protocol order. CrashInjector aborts the
/// writer exactly at one of these points; the crash matrix iterates all of
/// them. kTornSectionWrite fires mid-payload, leaving a torn temp file.
enum class CkptPhase : std::uint32_t {
  kAfterTempOpen = 0,     ///< temp file created, nothing written yet
  kTornSectionWrite,      ///< half the payload written (torn write)
  kAfterTempWrite,        ///< payload complete, not fsynced
  kAfterTempFsync,        ///< fsynced, not renamed
  kAfterDataRename,       ///< data file in place, manifest still old
  kAfterManifestTemp,     ///< manifest temp written+fsynced, not renamed
  kAfterManifestRename,   ///< protocol complete, retention not yet run
  kCount
};

const char* ckpt_phase_name(CkptPhase phase);

/// Thrown by CheckpointManager::write when the installed CrashInjector
/// fires — the in-process stand-in for the process dying at that exact
/// point. The writer performs no cleanup: whatever the protocol left on
/// disk stays, and recovery must cope with it.
class CrashInjected : public std::runtime_error {
 public:
  CrashInjected(CkptPhase phase, std::uint64_t generation);
  CkptPhase phase() const { return phase_; }
  std::uint64_t generation() const { return generation_; }

 private:
  CkptPhase phase_;
  std::uint64_t generation_;
};

/// Aborts the checkpoint writer at a chosen phase of a chosen generation
/// (0 = the first write attempted). Same idiom as the storage-side
/// FaultInjector: deterministic, armed once, counted in ckpt.* metrics.
class CrashInjector {
 public:
  CrashInjector(CkptPhase phase, std::uint64_t at_generation = 0)
      : phase_(phase), at_generation_(at_generation) {}

  /// Called by the writer at each phase boundary; throws CrashInjected when
  /// armed for this (phase, generation). Fires at most once.
  void check(CkptPhase phase, std::uint64_t generation);

  bool fired() const { return fired_; }
  CkptPhase phase() const { return phase_; }

 private:
  CkptPhase phase_;
  std::uint64_t at_generation_;
  bool fired_ = false;
};

struct CheckpointConfig {
  bool enabled = false;
  std::string dir;               ///< checkpoint directory (created on demand)
  /// Trainer-side cadence: write a checkpoint every N trained batches
  /// (0 = only at epoch boundaries / explicit checkpoint() calls).
  std::uint32_t interval_batches = 0;
  std::uint32_t keep_last = 2;   ///< generations retained (>= 1)
  /// fsync file + directory at each barrier of the protocol. Leave on; the
  /// knob exists so huge test matrices can trade durability for speed.
  bool fsync = true;
};

/// Identity of the training run a checkpoint belongs to. Resuming into a
/// differently-shaped model or a different run seed would silently corrupt
/// training, so load_latest refuses a fingerprint mismatch loudly.
struct ModelFingerprint {
  std::uint32_t kind = 0;
  std::uint32_t in_dim = 0;
  std::uint32_t hidden_dim = 0;
  std::uint32_t num_classes = 0;
  std::uint32_t num_layers = 0;
  std::uint32_t gat_heads = 0;
  std::uint64_t model_seed = 0;
  std::uint64_t run_seed = 0;
  std::uint32_t batch_seeds = 0;

  static ModelFingerprint from(const ModelConfig& mc, std::uint64_t run_seed,
                               std::uint32_t batch_seeds);
  bool operator==(const ModelFingerprint& o) const = default;
};

/// One named, serialized RNG stream (RngState = 4x u64).
struct RngStream {
  std::uint32_t id = 0;
  RngState state{};
};

/// Everything a checkpoint persists besides the model/optimizer tensors.
struct TrainCursor {
  std::uint64_t epoch = 0;        ///< epoch the cursor points into
  std::uint64_t next_batch = 0;   ///< first batch of `epoch` not yet trained
  std::uint64_t trained_batches = 0;  ///< lifetime trained-batch count
  ModelFingerprint fingerprint;
  std::vector<RngStream> rng_streams;
  /// Pinned hot-partition node set (cache.policy = kHotness): resume adopts
  /// it and skips re-profiling. Empty under the LRU policy; checkpoints
  /// written before this section existed parse as empty (skipped section).
  std::vector<NodeId> hot_set;
  /// Fingerprint of the feature-layout plan (src/layout) the image was
  /// compiled to when the checkpoint was written; 0 means identity / no
  /// plan. resume() refuses a mismatch — a cursor trained against one
  /// physical row order must not adopt an image packed differently.
  /// Checkpoints written before this section existed parse as 0.
  std::uint64_t layout_fingerprint = 0;
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointConfig config,
                             Telemetry* telemetry = nullptr);

  /// Test hook: aborts the next write at the injector's phase. Borrowed;
  /// pass nullptr to disarm.
  void set_crash_injector(CrashInjector* injector) { crash_ = injector; }

  /// Serializes cursor + model parameters + Adam state into the next
  /// generation using the atomic protocol above. Returns the generation
  /// written. Throws CrashInjected when the armed injector fires and
  /// std::runtime_error on real filesystem failures.
  std::uint64_t write(const TrainCursor& cursor, GnnModel& model, Adam& adam);

  struct LoadResult {
    TrainCursor cursor;
    std::uint64_t generation = 0;
    std::uint32_t fallbacks = 0;  ///< corrupt newer generations skipped
  };

  /// Restores the newest generation whose sections all validate, falling
  /// back one generation at a time past torn/corrupt files. Restores
  /// parameters into `model` and, when `adam` is non-null, optimizer state
  /// into it (serving adopts parameters only). Returns nullopt when no
  /// valid checkpoint exists. Throws std::runtime_error when the newest
  /// valid checkpoint's fingerprint does not match `expect`.
  std::optional<LoadResult> load_latest(GnnModel& model, Adam* adam,
                                        const ModelFingerprint& expect);

  /// Generations present on disk (complete files only), ascending.
  std::vector<std::uint64_t> generations() const;
  /// Generation the manifest names; 0 when there is no valid manifest.
  std::uint64_t manifest_generation() const;

  const CheckpointConfig& config() const { return config_; }

  /// Test helpers for media-corruption scenarios: flip one deterministic
  /// bit of / truncate the tail of generation `gen`'s file. Return false
  /// when the file does not exist.
  bool corrupt_flip_bit(std::uint64_t gen, std::uint64_t seed = 1);
  bool corrupt_truncate(std::uint64_t gen, double keep_fraction = 0.5);

 private:
  std::string data_path(std::uint64_t gen) const;
  void write_manifest(std::uint64_t gen);
  void prune(std::uint64_t newest);
  void crash_point(CkptPhase phase, std::uint64_t gen);

  CheckpointConfig config_;
  CrashInjector* crash_ = nullptr;
  std::uint64_t next_generation_ = 0;  ///< 0 = derive from directory scan

  // ckpt.* observability, resolved from the telemetry's registry or from
  // owned_metrics_.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* m_writes_;       ///< ckpt.writes
  Counter* m_bytes_;        ///< ckpt.bytes_written
  Counter* m_restores_;     ///< ckpt.restores
  Counter* m_fallbacks_;    ///< ckpt.fallbacks
  Counter* m_crashes_;      ///< ckpt.crashes_injected
  Gauge* m_generation_;     ///< ckpt.generation
  Gauge* m_retained_;       ///< ckpt.retained
  ConcurrentHistogram* m_write_us_;  ///< ckpt.write.us
  Telemetry* telemetry_ = nullptr;
};

}  // namespace gnndrive
