#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/evaluate.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sampling/topology.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace gnndrive {

namespace {

/// Sleeps for the modeled extra time of CPU-bound training (the per-model
/// CPU-vs-GPU throughput gap; see ModelConfig::cpu_slowdown).
void model_cpu_slowdown(double real_seconds, double factor) {
  if (factor > 1.0 && real_seconds > 0) {
    std::this_thread::sleep_for(from_us(real_seconds * (factor - 1.0) * 1e6));
  }
}

std::uint64_t elapsed_ns(TimePoint begin, TimePoint end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

/// Epoch encoded into SampledBatch::batch_id by run_epoch's samplers.
std::uint32_t epoch_of(std::uint64_t batch_id) {
  return static_cast<std::uint32_t>((batch_id >> 24) - 1);
}

}  // namespace

struct GnnDrive::ExtractorState {
  std::unique_ptr<IoRing> ring;
  std::uint8_t* staging_base = nullptr;  ///< this ring's staging arena
  Rng backoff_rng{0};                    ///< jitter source, seeded per worker
  ExtractMetricHooks hooks;              ///< null without telemetry
  ExtractCounters counters;              ///< this epoch's extraction totals
  /// The current batch's extract sub-phases, accumulated only while tracing
  /// (the loop interleaves submit / SSD wait / transfer wait; the worker
  /// emits them as sequential synthetic spans).
  ExtractTrace trace;

  /// Jittered exponential backoff delay before retry number `attempt` (1+).
  Duration backoff(const FaultToleranceConfig& ft, std::uint32_t attempt) {
    double us = ft.backoff_initial_us;
    for (std::uint32_t a = 1; a < attempt; ++a) us *= ft.backoff_multiplier;
    const double jitter =
        1.0 + ft.backoff_jitter * (2.0 * backoff_rng.next_double() - 1.0);
    return from_us(us * std::max(jitter, 0.0));
  }
};

GnnDrive::GnnDrive(const RunContext& ctx, GnnDriveConfig config)
    : ctx_(ctx), config_(std::move(config)),
      sampler_(config_.common.sampler),
      metrics_(registry_or_own(ctx_.telemetry, owned_metrics_)),
      adam_(config_.common.adam) {
  const Dataset& ds = *ctx_.dataset;
  HostMemory& mem = *ctx_.host_mem;

  metadata_pin_ = PinnedBytes(mem, ds.host_metadata_bytes(), "gnndrive-meta");

  max_batch_nodes_ =
      std::min<std::uint64_t>(sampler_.max_nodes_per_batch(
                                  config_.common.batch_seeds),
                              ds.spec().num_nodes);
  const auto row_bytes =
      static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
  GD_CHECK_MSG(!(config_.gds_mode && config_.cpu_training),
               "GDS mode requires GPU training");
  // GDS reads at its 4 KiB access granularity, the staging path at sectors.
  const std::uint32_t covering = covering_row_bytes(
      row_bytes, config_.gds_mode ? kPageSize : kSectorSize);
  // Each extractor's reads carve their exact bytes from a staging arena of
  // about a page per ring slot, whatever the largest segment coalescing
  // may plan (core/extract.hpp); GDS keeps the arena in device memory.
  max_segment_bytes_ = staging_row_bytes_for(config_.coalesce, covering);
  inflight_cap_ = staging_rows_for(config_.coalesce, config_.ring_depth);
  arena_bytes_ = staging_arena_bytes(inflight_cap_, max_segment_bytes_);

  // Model (input/output dims come from the dataset).
  ModelConfig mc = config_.common.model;
  mc.in_dim = ds.spec().feature_dim;
  mc.num_classes = ds.spec().num_classes;
  mc.num_layers =
      static_cast<std::uint32_t>(config_.common.sampler.fanouts.size());
  config_.common.model = mc;
  model_ = std::make_unique<GnnModel>(mc);

  // Rough per-batch device working set (gathered X0 + activations), used to
  // size the feature buffer within device memory.
  const std::uint64_t x0_bytes = max_batch_nodes_ * mc.in_dim * 4ull;
  const std::uint64_t act_headroom =
      x0_bytes + max_batch_nodes_ * (8ull * mc.hidden_dim + mc.num_classes) * 4;

  // Auto-shrink the extractor count so (a) the staging area fits its
  // budget — pinned host memory, or device memory under GDS — and (b) the
  // Ne x Mb feature-buffer reserve fits device memory next to it.
  num_extractors_ = std::max(1u, config_.num_extractors);
  const auto staging_budget = static_cast<std::uint64_t>(
      config_.staging_fraction * static_cast<double>(mem.available()));
  const auto device_for_slots = [&](std::uint32_t extractors) {
    if (config_.cpu_training) return ~std::uint64_t{0};
    const std::uint64_t used =
        model_->param_state_bytes() + act_headroom +
        (config_.gds_mode ? extractors * arena_bytes_ : 0);
    return config_.gpu.device_memory_bytes -
           std::min(config_.gpu.device_memory_bytes, used);
  };
  // CPU training keeps the feature buffer in host memory: its Ne x Mb
  // reserve competes for the same budget, so it bounds Ne as well.
  const std::uint64_t host_for_slots =
      config_.cpu_training
          ? static_cast<std::uint64_t>(0.80 *
                                       static_cast<double>(mem.available()))
          : ~0ull;
  while (num_extractors_ > 1 &&
         ((!config_.gds_mode &&
           num_extractors_ * arena_bytes_ > staging_budget) ||
          num_extractors_ * max_batch_nodes_ * row_bytes >
              std::min(device_for_slots(num_extractors_), host_for_slots))) {
    --num_extractors_;
  }

  if (!config_.cpu_training) {
    gpu_ = std::make_unique<GpuDevice>(config_.gpu, ctx_.telemetry);
    model_state_alloc_ =
        DeviceAlloc(*gpu_, model_->param_state_bytes(), "model+adam");
  }
  // Staging bytes are recycled as transfers retire, so the area is bounded
  // by the number of extractors times the bytes in flight — "the number of
  // features to be loaded to GPU for each extractor" (Sect. 4.2) — not by
  // the whole mini-batch. This is what keeps GNNDrive's host footprint
  // tiny even at an "8 GB" budget (Fig. 9). GDS moves it to the device.
  const std::uint64_t staging_bytes = num_extractors_ * arena_bytes_;
  if (config_.gds_mode) {
    staging_alloc_ = DeviceAlloc(*gpu_, staging_bytes, "gds-staging");
  } else {
    staging_pin_ = PinnedBytes(mem, staging_bytes, "gnndrive-staging");
  }
  staging_.resize(staging_bytes);

  // Feature buffer: at least the Ne x Mb deadlock reserve; by default enough
  // for the training queue on top, scaled by the Fig. 12 knob.
  const std::uint64_t reserve = num_extractors_ * max_batch_nodes_;
  std::uint64_t desired = static_cast<std::uint64_t>(
      static_cast<double>((num_extractors_ + config_.train_queue_cap) *
                          max_batch_nodes_) *
      config_.feature_buffer_scale);
  desired = std::max(desired, reserve);

  if (config_.cpu_training) {
    // CPU variant: the feature buffer lives in host memory and shrinks to
    // what is left after the staging buffer AND the topology working set
    // (the buffer must not evict the index array sampling depends on —
    // that would recreate the very contention GNNDrive avoids).
    const std::uint64_t topo_bytes = ds.layout().indices_bytes;
    const std::uint64_t avail = mem.available();
    const std::uint64_t for_slots =
        avail > topo_bytes
            ? static_cast<std::uint64_t>(
                  0.75 * static_cast<double>(avail - topo_bytes))
            : avail / 4;
    const std::uint64_t host_fit = for_slots / row_bytes;
    feature_slots_ = std::max(std::min(desired, host_fit), reserve);
    cpu_buffer_pin_ =
        PinnedBytes(mem, feature_slots_ * row_bytes, "gnndrive-feature-buf");
  } else {
    const std::uint64_t fit = device_for_slots(num_extractors_) / row_bytes;
    feature_slots_ = std::max<std::uint64_t>(
        std::min<std::uint64_t>(desired, fit), reserve);
    // Throws device SimOutOfMemory when even the reserve does not fit.
    feature_buffer_alloc_ =
        DeviceAlloc(*gpu_, feature_slots_ * row_bytes, "feature-buffer");
  }

  FeatureBufferConfig fb;
  fb.num_slots = feature_slots_;
  fb.row_floats = ds.spec().feature_dim;
  feature_buffer_ =
      std::make_unique<FeatureBuffer>(fb, ds.spec().num_nodes, ctx_.telemetry);

  // Cache-policy validation (src/cache). The hot budget is fixed here so a
  // partition that would violate the cold-region deadlock-freedom invariant
  // (cold_slots >= Ne x Mb) is rejected at construction, not discovered as
  // a wedged extractor mid-epoch.
  validate_cache_config(config_.cache);
  if (config_.cache.policy == CachePolicy::kHotness) {
    hot_target_ = static_cast<std::uint64_t>(
        config_.cache.hot_fraction * static_cast<double>(feature_slots_));
    if (feature_slots_ - hot_target_ < reserve) {
      throw std::invalid_argument(
          "cache.hot_fraction=" + std::to_string(config_.cache.hot_fraction) +
          " leaves " + std::to_string(feature_slots_ - hot_target_) +
          " cold slots of " + std::to_string(feature_slots_) +
          ", below the Ne x Mb deadlock-freedom reserve of " +
          std::to_string(reserve));
    }
  }

  GD_LOG_INFO(
      "GNNDrive(%s): Ne=%u Mb=%llu slots=%llu staging=%.1f MiB policy=%s "
      "hot_target=%llu",
      config_.cpu_training ? "cpu" : "gpu", num_extractors_,
      static_cast<unsigned long long>(max_batch_nodes_),
      static_cast<unsigned long long>(feature_slots_),
      static_cast<double>(staging_bytes) / (1 << 20),
      cache_policy_name(config_.cache.policy),
      static_cast<unsigned long long>(hot_target_));

  // Checkpoint/recovery (src/ckpt): the training RNG stream is seeded from
  // the run seed so a fresh instance and a restored one agree by
  // construction until the first trained batch diverges them.
  train_rng_ = Rng(splitmix64(config_.common.run_seed));
  if (config_.ckpt.enabled) {
    ckpt_mgr_ =
        std::make_unique<CheckpointManager>(config_.ckpt, ctx_.telemetry);
  }
}

GnnDrive::~GnnDrive() = default;

void GnnDrive::ensure_hot_cache(const std::vector<NodeId>* from_checkpoint) {
  if (config_.cache.policy != CachePolicy::kHotness || hot_ready_) return;
  if (hot_target_ == 0) {
    hot_ready_ = true;  // hot_fraction rounded to zero slots: plain LRU
    return;
  }
  const Dataset& ds = *ctx_.dataset;
  if (from_checkpoint != nullptr && !from_checkpoint->empty() &&
      from_checkpoint->size() <= hot_target_) {
    // Resume path: adopt the checkpointed hot set instead of re-profiling —
    // the partition is part of the training run's identity and re-deriving
    // it would only repeat the pre-sampling cost.
    hot_nodes_ = *from_checkpoint;
    hot_source_ = HotSetSource::kCheckpoint;
    GD_LOG_INFO("hot-cache: adopted %zu pinned nodes from checkpoint",
                hot_nodes_.size());
  } else {
    const PresampleResult prof = presample_hot_set(
        ds, *ctx_.page_cache, config_.common.sampler,
        config_.common.batch_seeds, config_.common.run_seed,
        config_.cache.presample_batches, hot_target_);
    hot_nodes_ = prof.hot_nodes;
    hot_source_ = HotSetSource::kProfiled;
    GD_LOG_INFO(
        "hot-cache: profiled %u warm-up batches, pinning %zu/%llu slots "
        "(profile coverage %.1f%%)",
        prof.batches_profiled, hot_nodes_.size(),
        static_cast<unsigned long long>(feature_slots_),
        prof.coverage() * 100.0);
  }
  const HotPrefetchStats pf =
      prefetch_hot_rows(*feature_buffer_, hot_nodes_, ds, *ctx_.ssd,
                        config_.coalesce, ctx_.telemetry);
  GD_LOG_INFO("hot-cache: prefetched %llu rows in %llu reads (%.1f MiB)",
              static_cast<unsigned long long>(pf.rows),
              static_cast<unsigned long long>(pf.reads),
              static_cast<double>(pf.bytes) / (1 << 20));
  hot_ready_ = true;
}

bool GnnDrive::extract_batch(SampledBatch& batch, ExtractorState& state) {
  FeatureBuffer& fb = *feature_buffer_;
  const OnDiskLayout& lay = ctx_.dataset->layout();
  const auto row_bytes = static_cast<std::uint32_t>(lay.feature_row_bytes);
  const FaultToleranceConfig& ft = config_.fault;
  const Duration req_timeout = from_us(ft.request_timeout_ms * 1e3);
  // Watchdog poll granularity: short enough to detect stuck requests well
  // within the timeout, long enough to stay off the fast path.
  const Duration poll =
      std::max(from_us(ft.request_timeout_ms * 1e3 / 4), from_us(500.0));
  const Duration wait_list_timeout = from_us(ft.wait_list_timeout_ms * 1e3);

  std::vector<std::uint32_t> wait_idx;
  std::vector<std::uint32_t> load_idx;

  // Pass 1 (Algorithm 1 lines 5-19): reuse triage + reference counts, one
  // buffer-lock acquisition for the whole batch.
  {
    BusyScope busy(ctx_.telemetry);
    triage_batch(fb, batch, wait_idx, load_idx);
  }

  // Pass 2 (lines 20-31): the shared coalescing core (core/extract.cpp)
  // plans sorted-run merged reads, allocates slots per segment under one
  // buffer-lock take, submits the asynchronous loads and scatters completed
  // rows, preserving the per-segment retry/watchdog/fail protocol. Training
  // installs jittered exponential backoff as its retry policy.
  ExtractEnv env;
  env.fb = &fb;
  env.layout = &lay;
  env.row_bytes = row_bytes;
  env.ring = state.ring.get();
  env.staging_base = state.staging_base;
  env.staging_row_bytes = max_segment_bytes_;
  env.staging_rows = inflight_cap_;
  env.gpu = gpu_.get();
  env.telemetry = ctx_.telemetry;
  env.gds = config_.gds_mode;

  ExtractPolicy policy;
  policy.coalesce = config_.coalesce;
  policy.max_retries = ft.max_retries;
  policy.request_timeout = req_timeout;
  policy.poll = poll;
  policy.backoff = [&state, &ft](std::uint32_t attempt) {
    return state.backoff(ft, attempt);
  };
  policy.batch_id = batch.batch_id;
  policy.epoch = epoch_of(batch.batch_id);

  bool ok = extract_load_set(batch, load_idx, env, policy, state.hooks,
                             state.counters, &state.trace);

  // Wait-list resolution (line 38): nodes other extractors were loading. A
  // loader always resolves its nodes (valid or failed), so the timeout only
  // fires if that extractor died; the waiter then fails its batch too.
  if (ok) ok = resolve_wait_list(fb, batch, wait_idx, wait_list_timeout);
  return ok;
}

double GnnDrive::train_batch(SampledBatch& batch, EpochStats& stats) {
  const std::uint32_t dim = ctx_.dataset->spec().feature_dim;
  Tensor x0(static_cast<std::uint32_t>(batch.num_nodes()), dim);

  // Per-batch device working set (gathered features + activations).
  DeviceAlloc act;
  if (gpu_ != nullptr) {
    act = DeviceAlloc(*gpu_, x0.bytes() + model_->activation_bytes(batch),
                      "train-activations");
  }

  TrainStats ts;
  const auto run = [&] {
    // Index features in device memory through the node alias list.
    for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
      GD_CHECK_MSG(batch.alias[i] != kNoSlot, "untracked node at train time");
      std::memcpy(x0.row(i), feature_buffer_->slot_data(batch.alias[i]),
                  dim * 4);
    }
    ts = model_->train_batch(batch, x0);
    if (grad_sync_) grad_sync_(*model_);
    adam_.step(model_->params());
    adam_.zero_grad(model_->params());
  };

  const TimePoint t0 = Clock::now();
  if (gpu_ != nullptr) {
    gpu_->launch([&] {
      run();
      // Modeled kernel-time floor for slower devices (GpuConfig docs).
      if (config_.gpu.gpu_flops_per_s > 0) {
        const double kernel_s = static_cast<double>(model_->flops(batch)) /
                                config_.gpu.gpu_flops_per_s;
        const double real_s = to_seconds(Clock::now() - t0);
        if (kernel_s > real_s) {
          std::this_thread::sleep_for(from_us((kernel_s - real_s) * 1e6));
        }
      }
    });
  } else {
    BusyScope busy(ctx_.telemetry);
    run();
    if (config_.cpu_flops_per_s > 0) {
      const double kernel_s = static_cast<double>(model_->flops(batch)) /
                              config_.cpu_flops_per_s;
      const double real_s = to_seconds(Clock::now() - t0);
      if (kernel_s > real_s) {
        std::this_thread::sleep_for(from_us((kernel_s - real_s) * 1e6));
      }
    } else {
      model_cpu_slowdown(to_seconds(Clock::now() - t0),
                         config_.common.model.cpu_slowdown());
    }
  }
  stats.loss += ts.loss;
  stats.train_accuracy += ts.total > 0 ? static_cast<double>(ts.correct) /
                                             static_cast<double>(ts.total)
                                       : 0.0;
  return ts.loss;
}

std::uint64_t GnnDrive::write_checkpoint(std::uint64_t epoch,
                                         std::uint64_t next_batch) {
  TrainCursor cursor;
  cursor.epoch = epoch;
  cursor.next_batch = next_batch;
  cursor.trained_batches = total_trained_;
  cursor.fingerprint = fingerprint();
  cursor.rng_streams.push_back(RngStream{0, train_rng_.state()});
  cursor.hot_set = hot_nodes_;
  cursor.layout_fingerprint = ctx_.dataset->layout().layout_fingerprint();
  return ckpt_mgr_->write(cursor, *model_, adam_);
}

std::uint64_t GnnDrive::checkpoint() {
  GD_CHECK_MSG(ckpt_mgr_ != nullptr,
               "checkpoint() requires GnnDriveConfig::ckpt.enabled");
  if (gpu_ != nullptr) gpu_->sync();
  return write_checkpoint(cur_epoch_, cursor_.load());
}

std::optional<GnnDrive::ResumeInfo> GnnDrive::resume() {
  if (ckpt_mgr_ == nullptr) return std::nullopt;
  auto loaded = ckpt_mgr_->load_latest(*model_, &adam_, fingerprint());
  if (!loaded.has_value()) return std::nullopt;
  // A cursor trained against one physical feature order must not resume on
  // an image packed differently: batch contents would silently diverge.
  // Recompile the image to the checkpoint's layout (or vice versa) first.
  const std::uint64_t layout_fp = ctx_.dataset->layout().layout_fingerprint();
  if (loaded->cursor.layout_fingerprint != layout_fp) {
    throw std::runtime_error(
        "resume: checkpoint layout fingerprint " +
        std::to_string(loaded->cursor.layout_fingerprint) +
        " does not match the dataset's compiled layout " +
        std::to_string(layout_fp));
  }
  cur_epoch_ = loaded->cursor.epoch;
  cursor_.store(loaded->cursor.next_batch);
  total_trained_ = loaded->cursor.trained_batches;
  for (const RngStream& stream : loaded->cursor.rng_streams) {
    if (stream.id == 0) train_rng_.set_state(stream.state);
  }
  has_resume_ = true;
  resume_epoch_ = cur_epoch_;
  resume_cursor_ = loaded->cursor.next_batch;
  // Materialize the hot partition from the checkpoint (skips re-profiling);
  // falls back to a fresh profile when the checkpoint predates the policy.
  ensure_hot_cache(&loaded->cursor.hot_set);
  ResumeInfo info;
  info.epoch = cur_epoch_;
  info.next_batch = resume_cursor_;
  info.generation = loaded->generation;
  info.fallbacks = loaded->fallbacks;
  return info;
}

EpochStats GnnDrive::run_epoch(std::uint64_t epoch) {
  const Dataset& ds = *ctx_.dataset;
  // Hotness policy: profile + prefetch + pin before the first batch (no-op
  // for kLru or once the partition exists). Runs outside the epoch timer's
  // steady state on purpose — it is a one-time startup cost.
  ensure_hot_cache();

  // Data-parallel segment of the training set (whole set by default).
  std::vector<NodeId> train;
  {
    const auto& all = ds.train_nodes();
    train.reserve(all.size() / segment_count_ + 1);
    for (std::size_t i = segment_index_; i < all.size();
         i += segment_count_) {
      train.push_back(all[i]);
    }
  }
  auto batches = make_minibatches(
      train, config_.common.batch_seeds,
      splitmix64(config_.common.run_seed ^ (epoch + 1)));
  if (segment_count_ > 1) {
    // Equal batch counts across replicas so gradient-sync barriers line up.
    const std::size_t equal = (ds.train_nodes().size() / segment_count_) /
                              config_.common.batch_seeds;
    if (equal > 0 && batches.size() > equal) batches.resize(equal);
  }
  const std::size_t n_batches = batches.size();

  // Resume cursor: the first run_epoch after resume() starts mid-epoch at
  // the checkpointed batch; the shuffle above is deterministic per
  // (run_seed, epoch), so batches[start..] are exactly the ones the
  // interrupted run never trained.
  std::size_t start = 0;
  if (has_resume_ && epoch == resume_epoch_) {
    start = std::min<std::size_t>(resume_cursor_, n_batches);
  }
  has_resume_ = false;
  cur_epoch_ = epoch;
  cursor_.store(start);
  const bool ckpt_on = ckpt_mgr_ != nullptr;

  // Observability handles for this epoch (see docs/observability.md). Stage
  // histograms are always-on relaxed atomics; spans are recorded only while
  // tracing is enabled.
  Telemetry* tel = ctx_.telemetry;
  MetricsRegistry& reg = metrics_;
  SpanTracer* tracer = tel != nullptr ? tel->tracer() : nullptr;
  const bool tracing = tracer != nullptr && tracer->enabled();
  const auto epoch32 = static_cast<std::uint32_t>(epoch);

  // Live telemetry plane: refresh the attributor's topology, lease the
  // time-series sampler for the duration of the epoch (replaces the old
  // tracing-only 5 ms monitor thread — the sampler re-emits every gauge as
  // a trace counter track while tracing is on), and mark the process ready.
  BottleneckAttributor* attributor = tel != nullptr ? tel->attributor() : nullptr;
  if (attributor != nullptr) {
    AttributionConfig ac = attributor->config();
    ac.num_samplers = config_.num_samplers;
    ac.num_extractors = num_extractors_;
    ac.extract_queue_cap = config_.extract_queue_cap;
    ac.train_queue_cap = config_.train_queue_cap;
    if (ctx_.ssd != nullptr) ac.ssd_channels = ctx_.ssd->config().channels;
    attributor->set_config(ac);
  }
  reg.gauge("pipeline.epoch").set(static_cast<std::int64_t>(epoch));
  struct RunningGuard {
    Gauge& g;
    explicit RunningGuard(Gauge& gauge) : g(gauge) { g.add(1); }
    ~RunningGuard() { g.sub(1); }
  } running_guard{reg.gauge("pipeline.running")};
  SamplerLease sampler_lease(tel != nullptr ? tel->sampler() : nullptr);

  // Release-queue payload: the node list plus the batch id, so release spans
  // line up with the rest of the batch's trace.
  struct ReleaseItem {
    std::uint64_t batch_id = 0;
    std::vector<NodeId> nodes;
  };

  BoundedQueue<SampledBatch> extract_q(config_.extract_queue_cap);
  BoundedQueue<SampledBatch> train_q(config_.train_queue_cap);
  BoundedQueue<ReleaseItem> release_q(16);

  ConcurrentHistogram& h_sample = reg.histogram("stage.sample.us");
  ConcurrentHistogram& h_extract = reg.histogram("stage.extract.us");
  ConcurrentHistogram& h_train = reg.histogram("stage.train.us");
  ConcurrentHistogram& h_release = reg.histogram("stage.release.us");
  extract_q.bind_metrics(reg.gauge("pipeline.extract_q.depth"),
                         reg.counter("pipeline.extract_q.push_blocked"),
                         reg.counter("pipeline.extract_q.pop_blocked"));
  train_q.bind_metrics(reg.gauge("pipeline.train_q.depth"),
                       reg.counter("pipeline.train_q.push_blocked"),
                       reg.counter("pipeline.train_q.pop_blocked"));
  release_q.bind_metrics(reg.gauge("pipeline.release_q.depth"),
                         reg.counter("pipeline.release_q.push_blocked"),
                         reg.counter("pipeline.release_q.pop_blocked"));
  const auto stage_done = [](ConcurrentHistogram& h, TimePoint b,
                             TimePoint e) {
    h.add_us(to_seconds(e - b) * 1e6);
  };
  const FeatureBufferStats fb_before = feature_buffer_->stats();

  std::atomic<std::size_t> next_batch{start};
  std::atomic<std::uint64_t> sample_ns{0};
  std::atomic<std::uint64_t> extract_ns{0};
  std::atomic<std::uint64_t> failed_batches{0};
  std::uint64_t trained_here = 0;  ///< written by the trainer thread only
  Counter& failed_counter = reg.counter("fault.failed_batches");
  // Each extractor's final counters, summed into the epoch report once the
  // workers have joined.
  std::vector<ExtractCounters> extract_totals(num_extractors_);
  std::mutex err_mu;
  std::exception_ptr error;
  const auto capture_error = [&] {
    std::lock_guard lk(err_mu);
    if (!error) error = std::current_exception();
    extract_q.close();
    train_q.close();
    release_q.close();
  };

  EpochStats stats;
  stats.batches = n_batches - start;
  // The registry snapshots bounding the epoch, outside its timer: EpochObs'
  // stage rows and the attribution report are both their diff.
  const MetricsRegistry::Snapshot begin = reg.snapshot();
  const TimePoint t0 = Clock::now();

  std::vector<std::thread> samplers;
  for (std::uint32_t s = 0; s < config_.num_samplers; ++s) {
    samplers.emplace_back([&] {
      try {
        MmapTopology topo(ds, *ctx_.page_cache);
        for (;;) {
          // Graceful drain: a stop request stops claiming new batches; the
          // already-claimed ones finish through the pipeline normally.
          if (stop_requested_.load(std::memory_order_relaxed)) break;
          const std::size_t b = next_batch.fetch_add(1);
          if (b >= n_batches) break;
          const TimePoint ts = Clock::now();
          SampledBatch batch;
          {
            BusyScope busy(ctx_.telemetry);
            batch = sampler_.sample(((epoch + 1) << 24) | b, batches[b], topo,
                                    &ds.labels());
          }
          const TimePoint te = Clock::now();
          sample_ns.fetch_add(elapsed_ns(ts, te));
          stage_done(h_sample, ts, te);
          if (tracing) {
            tracer->record(kSpanSample, batch.batch_id, epoch32, ts, te);
          }
          if (!extract_q.push(std::move(batch))) break;
        }
      } catch (...) {
        capture_error();
      }
    });
  }

  std::vector<std::thread> workers;
  if (config_.common.sample_only) {
    // Fig. 2 "-only" mode: sampled batches are discarded.
    workers.emplace_back([&] {
      while (extract_q.pop().has_value()) {
      }
    });
  } else {
    for (std::uint32_t e = 0; e < num_extractors_; ++e) {
      workers.emplace_back([&, e] {
        ExtractorState state;
        state.backoff_rng =
            Rng(splitmix64(config_.common.run_seed ^ (epoch << 8) ^ e));
        try {
          IoRingConfig rc;
          rc.queue_depth = config_.ring_depth;
          // Direct I/O bypasses the OS page cache (Sect. 4.2); buffered
          // mode exists as an ablation (see GnnDriveConfig::direct_io).
          rc.direct = config_.direct_io;
          // A request longer than any planned segment would overrun its
          // staging bytes; the ring rejects such a planner bug with -EINVAL.
          rc.max_transfer_bytes = max_segment_bytes_;
          state.ring = std::make_unique<IoRing>(
              *ctx_.ssd, rc, config_.direct_io ? nullptr : ctx_.page_cache,
              ctx_.telemetry);
          state.hooks = extract_metric_hooks(tel);
          state.staging_base = staging_.data() + e * arena_bytes_;
          for (;;) {
            const TimePoint qb = tracing ? Clock::now() : TimePoint{};
            auto batch = extract_q.pop();
            if (!batch) break;
            if (tracing) {
              tracer->record(kSpanQueueWait, batch->batch_id, epoch32, qb,
                             Clock::now());
            }
            const TimePoint ts = Clock::now();
            const std::uint64_t span_base = tracing ? tracer->now_ns() : 0;
            state.trace = ExtractTrace{tracing};
            const bool ok = extract_batch(*batch, state);
            const TimePoint te = Clock::now();
            extract_ns.fetch_add(elapsed_ns(ts, te));
            stage_done(h_extract, ts, te);
            if (tracing) {
              tracer->record(kSpanExtract, batch->batch_id, epoch32, ts, te);
              // The real loop interleaves submit / SSD wait / transfer wait;
              // the accumulated durations are emitted back-to-back so the
              // extract row shows where the time went.
              const ExtractTrace& tr = state.trace;
              std::uint64_t cur = span_base;
              if (tr.submit_ns > 0) {
                tracer->record_rel(kSpanRingSubmit, batch->batch_id, epoch32,
                                   cur, tr.submit_ns);
                cur += tr.submit_ns;
              }
              if (tr.ssd_wait_ns > 0) {
                tracer->record_rel(kSpanSsdWait, batch->batch_id, epoch32, cur,
                                   tr.ssd_wait_ns);
                cur += tr.ssd_wait_ns;
              }
              if (tr.copy_wait_ns > 0) {
                tracer->record_rel(kSpanCopyWait, batch->batch_id, epoch32,
                                   cur, tr.copy_wait_ns);
              }
            }
            if (ok) {
              if (!train_q.push(std::move(*batch))) break;
            } else {
              // Graceful degradation: the batch never trains, but its
              // references must still drain so slots return to standby.
              failed_batches.fetch_add(1);
              failed_counter.add();
              log_structured(LogLevel::kWarn, "batch_failed",
                             {kv("batch", batch->batch_id), kv("epoch", epoch),
                              kv("io_errors", state.counters.io_errors),
                              kv("io_retries", state.counters.io_retries)});
              if (auto item = release_q.push_or_reclaim(ReleaseItem{
                      batch->batch_id, std::move(batch->nodes)})) {
                // Epoch is aborting and the releaser is gone: release inline
                // so no extractor starves waiting for slots.
                feature_buffer_->release(item->nodes);
              }
              if (config_.fault.fail_fast) {
                throw std::runtime_error(
                    "GNNDrive: batch extraction failed (fail_fast)");
              }
            }
          }
        } catch (...) {
          capture_error();
        }
        extract_totals[e] = state.counters;
      });
    }
    // Trainer.
    workers.emplace_back([&] {
      std::uint32_t since_ckpt = 0;
      try {
        for (;;) {
          const TimePoint qb = tracing ? Clock::now() : TimePoint{};
          auto batch = train_q.pop();
          if (!batch) break;
          if (tracing) {
            tracer->record(kSpanQueueWait, batch->batch_id, epoch32, qb,
                           Clock::now());
          }
          const TimePoint ts = Clock::now();
          const double loss = train_batch(*batch, stats);
          const TimePoint te = Clock::now();
          stats.train_seconds += to_seconds(te - ts);
          stage_done(h_train, ts, te);
          if (tracing) {
            tracer->record(kSpanTrain, batch->batch_id, epoch32, ts, te);
          }
          // Advance the checkpoint cursor: with one sampler and one
          // extractor batches train strictly in order, so "count trained"
          // equals "index of the next untrained batch" and resume is
          // bit-exact; multi-worker runs reorder and resume approximately
          // (docs/recovery.md).
          ++trained_here;
          ++total_trained_;
          cursor_.store(start + trained_here);
          train_rng_();
          if (config_.record_batch_losses) stats.batch_losses.push_back(loss);
          if (auto item = release_q.push_or_reclaim(
                  ReleaseItem{batch->batch_id, std::move(batch->nodes)})) {
            feature_buffer_->release(item->nodes);  // epoch aborting; see above
          }
          if (ckpt_on && config_.ckpt.interval_batches > 0 &&
              ++since_ckpt >= config_.ckpt.interval_batches) {
            since_ckpt = 0;
            // A CrashInjected here propagates through capture_error like a
            // process death: queues close, the epoch aborts, and recovery
            // must cope with whatever the protocol left on disk.
            write_checkpoint(epoch, start + trained_here);
          }
        }
        release_q.close();
      } catch (...) {
        capture_error();
      }
    });
    // Releaser.
    workers.emplace_back([&] {
      try {
        while (auto item = release_q.pop()) {
          const TimePoint ts = Clock::now();
          feature_buffer_->release(item->nodes);
          const TimePoint te = Clock::now();
          stage_done(h_release, ts, te);
          if (tracing) {
            tracer->record(kSpanRelease, item->batch_id, epoch32, ts, te);
          }
        }
      } catch (...) {
        capture_error();
      }
    });
  }

  // The queue-depth / standby / in-flight counter tracks that used to come
  // from a dedicated 5 ms monitor thread here now come from the leased
  // TimeSeriesSampler: every tick re-emits each registry gauge
  // (pipeline.*.depth, fb.standby, io.inflight, ...) as a trace counter
  // track while tracing is enabled.

  for (auto& t : samplers) t.join();
  extract_q.close();
  // The extractors drain the queue, then the trainer, then the releaser.
  if (!config_.common.sample_only) {
    for (std::size_t i = 0; i + 2 < workers.size(); ++i) workers[i].join();
    train_q.close();
    workers[workers.size() - 2].join();  // trainer (closes release_q)
    workers.back().join();               // releaser
  } else {
    workers[0].join();
  }
  if (gpu_ != nullptr) gpu_->sync();

  {
    std::lock_guard lk(err_mu);
    if (error) std::rethrow_exception(error);
  }

  // Epoch boundary: roll the cursor into the next epoch, or — when a stop
  // request drained the epoch early — leave it pointing at the first
  // untrained batch of this one, then take the boundary checkpoint.
  stats.interrupted = stop_requested_.load();
  if (!stats.interrupted) {
    cur_epoch_ = epoch + 1;
    cursor_.store(0);
  }
  if (ckpt_on && !config_.common.sample_only) {
    write_checkpoint(cur_epoch_, cursor_.load());
  }

  stats.epoch_seconds = to_seconds(Clock::now() - t0);
  const MetricsRegistry::Snapshot end = reg.snapshot();
  stats.sample_seconds = static_cast<double>(sample_ns.load()) / 1e9;
  stats.extract_seconds = static_cast<double>(extract_ns.load()) / 1e9;
  stats.result.failed_batches = failed_batches.load();
  stats.result.trained_batches = trained_here;
  for (const ExtractCounters& c : extract_totals) {
    stats.result.io_errors += c.io_errors;
    stats.result.io_retries += c.io_retries;
    stats.result.io_recovered += c.io_recovered;
    stats.result.io_timeouts += c.io_timeouts;
    stats.obs.io_segments += c.segments;
    stats.obs.io_rows += c.rows_loaded;
  }
  const auto stage = [&](const char* name) {
    return StageLatency::of(
        end.histogram(name).diff_since(begin.histogram(name)));
  };
  stats.obs.sample = stage("stage.sample.us");
  stats.obs.extract = stage("stage.extract.us");
  stats.obs.train = stage("stage.train.us");
  stats.obs.release = stage("stage.release.us");
  stats.obs.extract_q_max = extract_q.max_size();
  stats.obs.train_q_max = train_q.max_size();
  stats.obs.release_q_max = release_q.max_size();
  const FeatureBufferStats fb_after = feature_buffer_->stats();
  stats.obs.fb_hot_hits = fb_after.hot_hits - fb_before.hot_hits;
  stats.obs.fb_reuse_hits = fb_after.reuse_hits - fb_before.reuse_hits;
  stats.obs.fb_wait_hits = fb_after.wait_hits - fb_before.wait_hits;
  stats.obs.fb_loads = fb_after.loads - fb_before.loads;
  // Mean loss/accuracy over the batches that actually trained (identical to
  // dividing by n_batches on a clean epoch).
  const std::uint64_t denom =
      config_.common.sample_only ? n_batches : trained_here;
  if (denom > 0) {
    stats.loss /= static_cast<double>(denom);
    stats.train_accuracy /= static_cast<double>(denom);
  }

  // Epoch-scoped bottleneck report: diagnose the epoch just run from its
  // bounding registry snapshots and publish it (structured "attribution"
  // event + the /attribution endpoint's latest report).
  if (attributor != nullptr) {
    attributor->publish(attributor->attribute(
        begin, end, stats.epoch_seconds,
        "epoch " + std::to_string(epoch)));
  }
  return stats;
}

double GnnDrive::evaluate() {
  return evaluate_accuracy(*model_, *ctx_.dataset, config_.common.sampler);
}

}  // namespace gnndrive
