#include "core/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/evaluate.hpp"
#include "core/stage.hpp"
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

/// Release-queue payload: the node list plus the batch id, so release spans
/// line up with the rest of the batch's trace.
struct ReleaseItem {
  std::uint64_t batch_id = 0;
  std::vector<NodeId> nodes;
};

/// The extract loop interleaves submit / SSD wait / transfer wait; their
/// accumulated durations are emitted back-to-back from `base` so the
/// extract row of the trace shows where the time went.
void record_extract_phases(SpanTracer* tracer, std::uint64_t batch,
                           std::uint32_t epoch, std::uint64_t base,
                           const ExtractTrace& tr) {
  if (tracer == nullptr) return;
  const std::pair<const char*, std::uint64_t> phases[] = {
      {kSpanRingSubmit, tr.submit_ns},
      {kSpanSsdWait, tr.ssd_wait_ns},
      {kSpanCopyWait, tr.copy_wait_ns}};
  for (const auto& [name, ns] : phases) {
    if (ns == 0) continue;
    tracer->record_rel(name, batch, epoch, base, ns);
    base += ns;
  }
}

/// The epoch report's extraction totals, stage rows and feature-buffer
/// hits: sums over the extractors and registry diffs over the epoch.
void summarize_epoch(EpochStats& stats,
                     const std::vector<ExtractCounters>& extractors,
                     const MetricsRegistry::Snapshot& begin,
                     const MetricsRegistry::Snapshot& end,
                     const FeatureBufferStats& fb_before,
                     const FeatureBufferStats& fb_after) {
  for (const ExtractCounters& c : extractors) {
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
  stats.obs.fb_hot_hits = fb_after.hot_hits - fb_before.hot_hits;
  stats.obs.fb_reuse_hits = fb_after.reuse_hits - fb_before.reuse_hits;
  stats.obs.fb_wait_hits = fb_after.wait_hits - fb_before.wait_hits;
  stats.obs.fb_loads = fb_after.loads - fb_before.loads;
}

}  // namespace

/// One extractor's ring, staging arena and retry policy for an epoch.
struct GnnDrive::ExtractorState : NonCopyable {
  ExtractorState(GnnDrive& gd, std::uint64_t epoch, std::uint32_t e)
      : ft(gd.config_.fault),
        failed_batches(gd.metrics_.counter("fault.failed_batches")),
        backoff_rng(splitmix64(gd.config_.common.run_seed ^ (epoch << 8) ^ e)),
        hooks(extract_metric_hooks(gd.ctx_.telemetry)) {
    IoRingConfig rc;
    rc.queue_depth = gd.config_.ring_depth;
    // Direct I/O bypasses the OS page cache (Sect. 4.2); buffered mode
    // exists as an ablation (see GnnDriveConfig::direct_io).
    rc.direct = gd.config_.direct_io;
    // A request longer than any planned segment would overrun its staging
    // bytes; the ring rejects such a planner bug with -EINVAL.
    rc.max_transfer_bytes = gd.max_segment_bytes_;
    ring = std::make_unique<IoRing>(
        *gd.ctx_.ssd, rc, gd.config_.direct_io ? nullptr : gd.ctx_.page_cache,
        gd.ctx_.telemetry);
    const OnDiskLayout& lay = gd.ctx_.dataset->layout();
    env = ExtractEnv{gd.feature_buffer_.get(), &lay,
                     static_cast<std::uint32_t>(lay.feature_row_bytes),
                     ring.get(), gd.staging_.data() + e * gd.arena_bytes_,
                     gd.max_segment_bytes_, gd.inflight_cap_, gd.gpu_.get(),
                     gd.ctx_.telemetry, gd.config_.gds_mode};
    policy.coalesce = gd.config_.coalesce;
    policy.max_retries = ft.max_retries;
    set_timeouts(policy, ft.request_timeout_ms, ft.wait_list_timeout_ms);
    policy.backoff = [this](std::uint32_t attempt) { return backoff(attempt); };
    policy.epoch = epoch;
  }

  /// Algorithm 1 for one batch; false when it was abandoned after
  /// exhausting retries (its references still need releasing).
  bool extract(SampledBatch& batch) {
    policy.batch_id = batch.batch_id;
    return extract_batch(batch, env, policy, hooks, counters, &trace);
  }

  /// Counts and logs a batch that failed extraction; under fail_fast,
  /// throws to abort the epoch.
  void report_failure(std::uint64_t batch_id) {
    failed_batches.add();
    log_structured(LogLevel::kWarn, "batch_failed",
                   {kv("batch", batch_id), kv("epoch", policy.epoch),
                    kv("io_errors", counters.io_errors),
                    kv("io_retries", counters.io_retries)});
    if (ft.fail_fast) {
      throw std::runtime_error("GNNDrive: batch extraction failed (fail_fast)");
    }
  }

  /// Jittered exponential backoff delay before retry number `attempt` (1+).
  Duration backoff(std::uint32_t attempt) {
    double us = ft.backoff_initial_us;
    for (std::uint32_t a = 1; a < attempt; ++a) us *= ft.backoff_multiplier;
    const double jitter =
        1.0 + ft.backoff_jitter * (2.0 * backoff_rng.next_double() - 1.0);
    return from_us(us * std::max(jitter, 0.0));
  }

  const FaultToleranceConfig& ft;
  Counter& failed_batches;  ///< fault.failed_batches
  std::unique_ptr<IoRing> ring;
  ExtractEnv env;
  ExtractPolicy policy;
  Rng backoff_rng{0};        ///< jitter source, seeded per worker
  ExtractMetricHooks hooks;  ///< null without telemetry
  ExtractCounters counters;  ///< this epoch's extraction totals
  /// The current batch's extract sub-phases, accumulated only while tracing.
  ExtractTrace trace;
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

std::vector<std::vector<NodeId>> GnnDrive::epoch_batches(
    std::uint64_t epoch) const {
  // Data-parallel segment of the training set (whole set by default).
  const auto& all = ctx_.dataset->train_nodes();
  std::vector<NodeId> train;
  train.reserve(all.size() / segment_count_ + 1);
  for (std::size_t i = segment_index_; i < all.size(); i += segment_count_) {
    train.push_back(all[i]);
  }
  auto batches = make_minibatches(
      train, config_.common.batch_seeds,
      splitmix64(config_.common.run_seed ^ (epoch + 1)));
  if (segment_count_ > 1) {
    // Equal batch counts across replicas so gradient-sync barriers line up.
    const std::size_t equal =
        (all.size() / segment_count_) / config_.common.batch_seeds;
    if (equal > 0 && batches.size() > equal) batches.resize(equal);
  }
  return batches;
}

BottleneckAttributor* GnnDrive::configure_attributor() {
  BottleneckAttributor* attributor =
      ctx_.telemetry != nullptr ? ctx_.telemetry->attributor() : nullptr;
  if (attributor != nullptr) {
    AttributionConfig ac = attributor->config();
    ac.num_samplers = config_.num_samplers;
    ac.num_extractors = num_extractors_;
    ac.extract_queue_cap = config_.extract_queue_cap;
    ac.train_queue_cap = config_.train_queue_cap;
    if (ctx_.ssd != nullptr) ac.ssd_channels = ctx_.ssd->config().channels;
    attributor->set_config(ac);
  }
  return attributor;
}

EpochStats GnnDrive::run_epoch(std::uint64_t epoch) {
  const Dataset& ds = *ctx_.dataset;
  // Hotness policy: profile + prefetch + pin before the first batch (no-op
  // for kLru or once the partition exists). Runs outside the epoch timer's
  // steady state on purpose — it is a one-time startup cost.
  ensure_hot_cache();
  const std::vector<std::vector<NodeId>> batches = epoch_batches(epoch);
  const std::size_t n_batches = batches.size();
  const std::size_t start = enter_epoch(epoch, n_batches);
  const bool training = !config_.common.sample_only;

  // Observability (docs/observability.md): stage histograms are always-on
  // relaxed atomics; spans are recorded only while tracing is enabled.
  Telemetry* tel = ctx_.telemetry;
  MetricsRegistry& reg = metrics_;
  SpanTracer* tracer = tel != nullptr ? tel->tracer() : nullptr;
  if (tracer != nullptr && !tracer->enabled()) tracer = nullptr;
  const auto epoch32 = static_cast<std::uint32_t>(epoch);
  BottleneckAttributor* attributor = configure_attributor();
  reg.gauge("pipeline.epoch").set(static_cast<std::int64_t>(epoch));

  // The four stages and their queues (Sect. 4.1). While it runs, the group
  // holds pipeline.running (/readyz) and leases the time-series sampler,
  // which re-emits every gauge (queue depths, fb.standby, io.inflight) as a
  // trace counter track while tracing. A batch that will never train gives
  // its references back, so its slots return to standby.
  StageGroup group({&reg.gauge("pipeline.running"),
                    tel != nullptr ? tel->sampler() : nullptr, &reg, tracer,
                    epoch32});
  const auto release = [this](auto& item) {
    feature_buffer_->release(item.nodes);
  };
  // A training batch holds look-ahead hints on its nodes from just before
  // it enters the extract queue until it has been extracted: the feature
  // buffer keeps their slots longest and training reads ride them in. One
  // that is never extracted drops its hints here.
  const auto unwant = [this](SampledBatch& batch) {
    feature_buffer_->want(batch.nodes, -1);
  };
  auto& extract_q = group.link<SampledBatch>(
      "pipeline.extract_q", config_.extract_queue_cap,
      training ? Link<SampledBatch>::Dispose(unwant) : nullptr);
  auto& train_q = group.link<SampledBatch>("pipeline.train_q",
                                           config_.train_queue_cap, release);
  auto& release_q = group.link<ReleaseItem>("pipeline.release_q", 16, release);

  std::atomic<std::size_t> next_batch{start};
  std::atomic<std::uint64_t> failed_batches{0};
  std::uint64_t trained_here = 0;  ///< written by the trainer thread only
  std::vector<ExtractCounters> extract_totals(num_extractors_);
  EpochStats stats;
  stats.batches = n_batches - start;

  Stage& sample = group.stage(kSpanSample, config_.num_samplers,
      [&](Stage& self, std::uint32_t) {
        MmapTopology topo(ds, *ctx_.page_cache);
        // Graceful drain: a stop request stops claiming new batches; the
        // already-claimed ones finish through the pipeline normally.
        while (!stop_requested_.load(std::memory_order_relaxed)) {
          const std::size_t b = next_batch.fetch_add(1);
          if (b >= n_batches) break;
          const std::uint64_t id = ((epoch + 1) << 24) | b;
          SampledBatch batch = self.time(id, [&] {
            BusyScope busy(ctx_.telemetry);
            return sampler_.sample(id, batches[b], topo, &ds.labels());
          });
          if (training) feature_buffer_->want(batch.nodes, +1);
          if (!extract_q.push(std::move(batch))) break;
        }
      },
      {&extract_q});

  Stage& extract = group.stage(kSpanExtract, training ? num_extractors_ : 1,
      [&](Stage& self, std::uint32_t e) {
        // Fig. 2 "-only" mode: sampled batches are discarded.
        if (!training) return extract_q.each([](SampledBatch&) {});
        ExtractorState state(*this, epoch, e);
        extract_q.each([&](SampledBatch& batch) {
          const std::uint64_t span_base = tracer ? tracer->now_ns() : 0;
          state.trace = ExtractTrace{tracer != nullptr};
          const bool ok =
              self.time(batch.batch_id, [&] { return state.extract(batch); });
          // Its nodes are referenced now; the hints are spent. Every path
          // below moves the nodes on, so a dispose after a throw finds none.
          unwant(batch);
          record_extract_phases(tracer, batch.batch_id, epoch32, span_base,
                                state.trace);
          if (ok) {
            train_q.push(std::move(batch));
            return;
          }
          // Graceful degradation: the batch never trains, but its references
          // drain — before fail_fast may throw, since disposing an extract
          // queue item releases nothing — so slots return to standby.
          failed_batches.fetch_add(1);
          release_q.push(ReleaseItem{batch.batch_id, std::move(batch.nodes)});
          state.report_failure(batch.batch_id);
        });
        extract_totals[e] = state.counters;
      },
      {&train_q, &release_q});

  Stage& train = group.stage(kSpanTrain, training ? 1 : 0,
      [&](Stage& self, std::uint32_t) {
        std::uint32_t since_ckpt = 0;
        train_q.each([&](SampledBatch& batch) {
          const double loss = self.time(
              batch.batch_id, [&] { return train_batch(batch, stats); });
          if (config_.record_batch_losses) stats.batch_losses.push_back(loss);
          release_q.push(ReleaseItem{batch.batch_id, std::move(batch.nodes)});
          // A CrashInjected in a periodic checkpoint aborts the group like a
          // process death; recovery copes with what the protocol left.
          note_trained(epoch, start + ++trained_here, since_ckpt);
        });
      },
      {&release_q});

  group.stage(kSpanRelease, training ? 1 : 0,
      [&](Stage& self, std::uint32_t) {
        release_q.each([&](ReleaseItem& item) {
          self.time(item.batch_id,
                    [&] { feature_buffer_->release(item.nodes); });
        });
      });

  // The registry snapshots bounding the epoch, outside its timer: EpochObs'
  // stage rows and the attribution report are both their diff.
  const FeatureBufferStats fb_before = feature_buffer_->stats();
  const MetricsRegistry::Snapshot begin = reg.snapshot();
  const TimePoint t0 = Clock::now();
  group.run();
  if (gpu_ != nullptr) gpu_->sync();
  stats.interrupted = leave_epoch(epoch);

  stats.epoch_seconds = to_seconds(Clock::now() - t0);
  const MetricsRegistry::Snapshot end = reg.snapshot();
  stats.sample_seconds = sample.seconds();
  stats.extract_seconds = extract.seconds();
  stats.train_seconds = train.seconds();
  stats.result.failed_batches = failed_batches.load();
  stats.result.trained_batches = trained_here;
  summarize_epoch(stats, extract_totals, begin, end, fb_before,
                  feature_buffer_->stats());
  stats.obs.extract_q_max = extract_q.max_size();
  stats.obs.train_q_max = train_q.max_size();
  stats.obs.release_q_max = release_q.max_size();
  // Means over the batches that trained (all of them on a clean epoch).
  const std::uint64_t denom = training ? trained_here : n_batches;
  if (denom > 0) {
    stats.loss /= static_cast<double>(denom);
    stats.train_accuracy /= static_cast<double>(denom);
  }
  // The epoch's bottleneck report: an "attribution" event + /attribution.
  if (attributor != nullptr) {
    attributor->publish(attributor->attribute(
        begin, end, stats.epoch_seconds, "epoch " + std::to_string(epoch)));
  }
  return stats;
}

std::size_t GnnDrive::enter_epoch(std::uint64_t epoch,
                                  std::size_t n_batches) {
  // The first run_epoch after resume() starts mid-epoch at the checkpointed
  // batch; the shuffle is deterministic per (run_seed, epoch), so the
  // batches from there on are exactly the ones the interrupted run never
  // trained.
  const std::size_t start =
      has_resume_ && epoch == resume_epoch_
          ? std::min<std::size_t>(resume_cursor_, n_batches)
          : 0;
  has_resume_ = false;
  cur_epoch_ = epoch;
  cursor_.store(start);
  return start;
}

void GnnDrive::note_trained(std::uint64_t epoch, std::uint64_t next_batch,
                            std::uint32_t& since_ckpt) {
  // With one sampler and one extractor batches train strictly in order, so
  // "count trained" equals "index of the next untrained batch" and resume
  // is bit-exact; multi-worker runs reorder and resume approximately
  // (docs/recovery.md).
  ++total_trained_;
  cursor_.store(next_batch);
  train_rng_();
  if (ckpt_mgr_ != nullptr && config_.ckpt.interval_batches > 0 &&
      ++since_ckpt >= config_.ckpt.interval_batches) {
    since_ckpt = 0;
    write_checkpoint(epoch, next_batch);
  }
}

bool GnnDrive::leave_epoch(std::uint64_t epoch) {
  // Roll the cursor into the next epoch, or — when a stop request drained
  // the epoch early — leave it at the first untrained batch of this one,
  // then take the boundary checkpoint.
  const bool interrupted = stop_requested_.load();
  if (!interrupted) {
    cur_epoch_ = epoch + 1;
    cursor_.store(0);
  }
  if (ckpt_mgr_ != nullptr && !config_.common.sample_only) {
    write_checkpoint(cur_epoch_, cursor_.load());
  }
  return interrupted;
}

double GnnDrive::evaluate() {
  return evaluate_accuracy(*model_, *ctx_.dataset, config_.common.sampler);
}

}  // namespace gnndrive
