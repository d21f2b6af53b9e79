// GNNDrive-Serve: online inference over the training substrates.
//
// The serving path reuses exactly the machinery the paper builds for
// training — the refcounted feature buffer (Sect. 4.2), direct asynchronous
// SSD reads through an io_uring-style ring, and a recycled staging arena —
// but drives it from a latency-oriented front end, whose reads go to the
// device's latency class (they start ahead of queued training extraction):
//
//   submit() --> RequestQueue (admission control, deadline stamping)
//            --> MicroBatchCoalescer (size/time-bounded batching)
//            --> N serve workers: shed expired -> sample merged seeds ->
//                extract via Algorithm 1 (shared FeatureBuffer) ->
//                forward-only pass -> resolve futures -> release refs
//
// Sharing the feature buffer with a concurrently-training pipeline is the
// point: inference hits features training already paid to load, and vice
// versa. Two disciplines make the sharing safe:
//
//   * Pin budget. Training's deadlock-freedom argument reserves Ne x Mb
//     slots for its extractors. Serving acquires its sampled node count
//     against a counting semaphore of (num_slots - reserved_slots) BEFORE
//     touching check_and_ref, so serve pins can never eat into training's
//     reserve — neither side can deadlock the other. A micro-batch larger
//     than the whole serve budget fails cleanly instead of wedging.
//   * Whole-batch failure granularity. An unrecoverable read fails the
//     micro-batch exactly like a training batch: the row it could not
//     read is marked failed (waking cross-batch waiters), the batch's
//     other rows still load, every reference is released, and each
//     request's future resolves with kFailed. Later batches that need the
//     failed row retry the load from scratch — an EIO during serving
//     degrades the affected requests, never the training run.
//
// Forward passes run on per-worker model replicas (GnnModel's forward
// caches are not thread-safe) refreshed from the shared parameter source
// via refresh_params(); with a GpuDevice they are attributed as kernel
// launches, otherwise as CPU busy time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "core/pipeline.hpp"
#include "core/stage.hpp"
#include "obs/metrics.hpp"
#include "serve/coalescer.hpp"
#include "serve/request_queue.hpp"

namespace gnndrive {

/// Serving span names (Chrome-trace rows, like the kSpan* training stages).
inline constexpr const char* kSpanServeSample = "serve.sample";
inline constexpr const char* kSpanServeExtract = "serve.extract";
inline constexpr const char* kSpanServeInfer = "serve.infer";

/// The pieces serving shares with training. All pointers are borrowed and
/// must outlive the engine; `gpu` may be null (host inference).
struct ServeSubstrate {
  FeatureBuffer* feature_buffer = nullptr;
  GnnModel* params = nullptr;  ///< parameter source for the worker replicas
  GpuDevice* gpu = nullptr;
  /// Feature-buffer slots reserved for the training pipeline's deadlock
  /// freedom (Ne x Mb); serving pins only what lies beyond this.
  std::uint64_t reserved_slots = 0;
};

class ServeEngine : NonCopyable {
 public:
  ServeEngine(const RunContext& ctx, const ServeConfig& config,
              ServeSubstrate substrate);
  /// Convenience: serve alongside (or after) training on `host`, sharing
  /// its feature buffer, model parameters and GPU, honouring its Ne x Mb
  /// reserve. An empty config.sampler.fanouts defaults to the training
  /// fanouts (the fanout depth must match the model's layer count).
  ServeEngine(const RunContext& ctx, ServeConfig config, GnnDrive& host);

  void start();
  /// Admission-controlled submit; never blocks. Valid before start() (the
  /// backlog is served once workers run) and after stop() (rejects).
  std::future<InferResult> submit(NodeId node);
  /// Closes admission, serves out the backlog, joins the workers. Rethrows
  /// the first worker exception, if any.
  void stop();
  bool running() const { return workers_ != nullptr; }

  /// Publishes a fresh replica set copied from the substrate's source model
  /// (e.g. after further training epochs). Safe concurrent with in-flight
  /// inference — workers re-resolve the replica set at each micro-batch
  /// boundary (drain-and-swap), so no request ever observes a half-updated
  /// model and none is dropped. The source model itself must be quiescent
  /// (not mid-training-step) while the copy runs.
  void refresh_params();

  /// Hot-swaps the worker replicas to the newest valid checkpoint
  /// generation (parameters only — serving has no optimizer state). Same
  /// drain-and-swap guarantee as refresh_params, and a corrupt or absent
  /// checkpoint leaves the live replicas untouched: the load stages into a
  /// scratch model first. Returns the generation adopted, 0 if none.
  std::uint64_t hot_swap_from(CheckpointManager& manager,
                              const ModelFingerprint& expect);

  /// Version of the replica set workers currently resolve: the checkpoint
  /// generation of the last hot swap (refresh_params keeps the version).
  std::uint64_t model_generation() const;

  /// Aggregate serving report: the serve.* registry instruments' diffs
  /// since this engine was constructed (so submissions queued before
  /// start() count). Engines sharing one Telemetry share those instruments.
  ServeReport report() const;
  /// Max nodes serving may pin concurrently (num_slots - reserved_slots).
  std::uint64_t pin_budget() const { return pin_budget_; }

 private:
  struct WorkerState;
  /// Versioned, immutable-once-published set of per-worker forward
  /// replicas: the hot-swap unit. Workers grab the current set at each
  /// micro-batch boundary and hold the shared_ptr for the batch's
  /// duration; publishing a new set retires the old one when its last
  /// in-flight batch finishes.
  struct ModelSet;
  std::shared_ptr<const ModelSet> current_models() const;
  void publish_models(std::shared_ptr<const ModelSet> set);
  void worker_loop(std::uint32_t worker_id);
  void process_batch(std::vector<PendingRequest>&& batch, WorkerState& ws);
  void acquire_pins(std::uint64_t n);
  void release_pins(std::uint64_t n);
  void finish(PendingRequest& r, InferStatus status, std::int32_t cls,
              std::uint32_t coalesced, TimePoint done);

  RunContext ctx_;
  ServeConfig config_;
  ServeSubstrate sub_;
  NeighborSampler sampler_;
  /// The registry serving counts into: the telemetry's, else
  /// owned_metrics_.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry& metrics_;
  RequestQueue queue_;
  MicroBatchCoalescer coalescer_;

  // Counting semaphore over the serve share of feature-buffer slots.
  std::uint64_t pin_budget_ = 0;
  std::mutex pin_mu_;
  std::condition_variable pin_cv_;
  std::uint64_t pins_in_use_ = 0;

  std::uint32_t max_segment_bytes_ = 0;  ///< largest planned segment
  std::uint32_t inflight_cap_ = 0;       ///< segments in flight per ring
  std::uint64_t arena_bytes_ = 0;        ///< staging arena per worker
  PinnedBytes staging_pin_;
  std::vector<std::uint8_t> staging_;  ///< workers x arena_bytes_

  mutable std::mutex models_mu_;
  std::shared_ptr<const ModelSet> models_;
  std::atomic<std::uint64_t> next_batch_seq_{0};

  // serve.* instruments, resolved once from metrics_ (the request queue
  // counts serve.submitted / serve.rejected). report() diffs them against
  // base_ and fb_base_, taken at construction.
  Counter* m_completed_;              ///< serve.completed
  Counter* m_failed_;                 ///< serve.failed
  Counter* m_shed_;                   ///< serve.shed_deadline
  Counter* m_io_retries_;             ///< serve.io_retries
  Counter* m_io_errors_;              ///< serve.io_errors
  Counter* m_hot_swaps_;              ///< serve.hot_swaps
  Gauge* m_model_gen_;                ///< serve.model_generation
  Gauge* m_pinned_;                   ///< serve.pinned (nodes pinned)
  ConcurrentHistogram* rm_latency_;     ///< serve.latency.us
  ConcurrentHistogram* rm_queue_wait_;  ///< serve.queue_wait.us
  ConcurrentHistogram* rm_extract_;     ///< serve.extract.us
  ConcurrentHistogram* rm_infer_;       ///< serve.infer.us
  ConcurrentHistogram* rm_batch_size_;  ///< serve.batch.size
  MetricsRegistry::Snapshot base_;
  FeatureBufferStats fb_base_;  ///< the serve client's triage counts

  /// The serve workers between start() and stop(). Declared last: its
  /// destructor stops and joins workers that use every member above.
  std::unique_ptr<StageGroup> workers_;
};

}  // namespace gnndrive
