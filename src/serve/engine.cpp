#include "serve/engine.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/attribution.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sampling/topology.hpp"
#include "util/logging.hpp"

namespace gnndrive {

namespace {

/// Serve batch ids live far above training's ((epoch+1) << 24 | b) space so
/// trace rows and log lines never collide.
constexpr std::uint64_t kServeBatchBase = 1ull << 48;

ServeConfig resolve_serve_config(ServeConfig config, GnnDrive& host) {
  if (config.sampler.fanouts.size() !=
      host.model().config().num_layers) {
    config.sampler = host.config().common.sampler;
  }
  // Serving shares the host's feature buffer, so the hot partition must be
  // pinned (and sealed) before the serve pin budget is carved from the cold
  // region. A no-op under the LRU policy or when already profiled.
  host.ensure_hot_cache();
  return config;
}

}  // namespace

const char* infer_status_name(InferStatus status) {
  switch (status) {
    case InferStatus::kOk: return "ok";
    case InferStatus::kRejected: return "rejected";
    case InferStatus::kShedDeadline: return "shed_deadline";
    case InferStatus::kFailed: return "failed";
  }
  return "unknown";
}

std::string ServeReport::format() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "  requests submitted=%llu ok=%llu failed=%llu "
                "rejected=%llu shed=%llu\n",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(shed_deadline));
  out += line;
  std::snprintf(line, sizeof(line),
                "  batching batches=%llu coalesce=%.2fx queue_max=%llu\n",
                static_cast<unsigned long long>(batches), coalesce_factor,
                static_cast<unsigned long long>(queue_depth_max));
  out += line;
  out += latency.row("latency") + queue_wait.row("qwait") +
         extract.row("extract") + infer.row("infer");
  std::snprintf(line, sizeof(line),
                "  fbuffer  hit-rate=%.1f%%  io_errors=%llu io_retries=%llu\n",
                100.0 * fb_hit_rate,
                static_cast<unsigned long long>(io_errors),
                static_cast<unsigned long long>(io_retries));
  out += line;
  return out;
}

struct ServeEngine::ModelSet {
  std::uint64_t version = 0;  ///< checkpoint generation of the last hot swap
  std::vector<std::unique_ptr<GnnModel>> replicas;  ///< one per worker
};

struct ServeEngine::WorkerState {
  std::unique_ptr<MmapTopology> topo;
  std::unique_ptr<IoRing> ring;
  /// This worker's ring and staging arena, and the serving retry policy.
  ExtractEnv env;
  ExtractPolicy policy;
  /// Replica set pinned for the current micro-batch (drain-and-swap: held
  /// until the batch finishes, so a concurrent publish never frees a model
  /// under an in-flight forward pass).
  std::shared_ptr<const ModelSet> models;
  GnnModel* model = nullptr;             ///< this worker's forward replica
  ExtractMetricHooks hooks;              ///< io.coalesce.* (null w/o telemetry)
};

ServeEngine::ServeEngine(const RunContext& ctx, const ServeConfig& config,
                         ServeSubstrate substrate)
    : ctx_(ctx), config_(config), sub_(substrate),
      sampler_(config_.sampler),
      metrics_(registry_or_own(ctx.telemetry, owned_metrics_)),
      queue_(config_, metrics_),
      coalescer_(queue_, config_.max_batch, config_.max_wait_us) {
  GD_CHECK_MSG(ctx_.dataset != nullptr && ctx_.ssd != nullptr,
               "ServeEngine needs a dataset and an SSD");
  GD_CHECK_MSG(sub_.feature_buffer != nullptr && sub_.params != nullptr,
               "ServeEngine needs a feature buffer and a parameter source");
  GD_CHECK_MSG(config_.sampler.fanouts.size() ==
                   sub_.params->config().num_layers,
               "serve fanout depth must match the model's layer count");
  config_.workers = std::max(config_.workers, 1u);
  config_.ring_depth = std::max(config_.ring_depth, 1u);

  // The serve pin budget comes from the COLD region only: hot-partition
  // slots are pinned and never pass through allocate_slot, so they cannot
  // back serve's slot demand. cold_slots == num_slots with the hot cache off.
  const std::uint64_t cold = sub_.feature_buffer->cold_slots();
  if (cold <= sub_.reserved_slots) {
    throw std::invalid_argument(
        "ServeEngine: no cold feature-buffer headroom beyond the training "
        "reserve (cold_slots=" + std::to_string(cold) +
        " reserved=" + std::to_string(sub_.reserved_slots) +
        "); shrink cache.hot_fraction or grow the buffer");
  }
  pin_budget_ = cold - sub_.reserved_slots;

  const Dataset& ds = *ctx_.dataset;
  const auto row_bytes =
      static_cast<std::uint32_t>(ds.layout().feature_row_bytes);
  // Staging sizing mirrors the training pipeline: each worker's reads carve
  // their exact bytes from an arena of about a page per ring slot.
  max_segment_bytes_ = staging_row_bytes_for(
      config_.coalesce, covering_row_bytes(row_bytes, kSectorSize));
  inflight_cap_ = staging_rows_for(config_.coalesce, config_.ring_depth);
  arena_bytes_ = staging_arena_bytes(inflight_cap_, max_segment_bytes_);
  const std::uint64_t staging_bytes = config_.workers * arena_bytes_;
  if (ctx_.host_mem != nullptr) {
    staging_pin_ = PinnedBytes(*ctx_.host_mem, staging_bytes, "serve-staging");
  }
  staging_.resize(staging_bytes);

  // Per-worker forward replicas: GnnModel's forward caches are per-instance
  // state, so the training model cannot be shared across serve workers.
  {
    auto initial = std::make_shared<ModelSet>();
    for (std::uint32_t w = 0; w < config_.workers; ++w) {
      initial->replicas.push_back(
          std::make_unique<GnnModel>(sub_.params->config()));
      initial->replicas.back()->copy_params_from(*sub_.params);
    }
    models_ = std::move(initial);
  }

  MetricsRegistry& reg = metrics_;
  m_completed_ = &reg.counter("serve.completed");
  m_failed_ = &reg.counter("serve.failed");
  m_shed_ = &reg.counter("serve.shed_deadline");
  m_io_retries_ = &reg.counter("serve.io_retries");
  m_io_errors_ = &reg.counter("serve.io_errors");
  m_hot_swaps_ = &reg.counter("serve.hot_swaps");
  m_model_gen_ = &reg.gauge("serve.model_generation");
  m_pinned_ = &reg.gauge("serve.pinned");
  reg.gauge("serve.running");  // listed before start(); the workers hold it
  rm_latency_ = &reg.histogram("serve.latency.us");
  rm_queue_wait_ = &reg.histogram("serve.queue_wait.us");
  rm_extract_ = &reg.histogram("serve.extract.us");
  rm_infer_ = &reg.histogram("serve.infer.us");
  rm_batch_size_ = &reg.histogram("serve.batch.size");
  base_ = reg.snapshot();
  fb_base_ = sub_.feature_buffer->stats(FbClient::kServe);

  if (ctx_.telemetry != nullptr) {
    // Tell the attributor about the serve side of the topology and register
    // a windowed p99-vs-SLO rule so the watcher alerts the moment serving
    // degrades, instead of after a run-summary aggregate drifts.
    AttributionConfig ac = ctx_.telemetry->attributor()->config();
    ac.serve_workers = config_.workers;
    ac.serve_slo_us = config_.slo.deadline_ms * 1e3;
    ctx_.telemetry->attributor()->set_config(ac);
    if (config_.slo.deadline_ms > 0) {
      SloRule rule;
      rule.name = "serve_p99_slo";
      rule.kind = SloRule::Kind::kHistogramQuantile;
      rule.metric = "serve.latency.us";
      rule.quantile = 0.99;
      rule.threshold = config_.slo.deadline_ms * 1e3;
      rule.window_s = 2.0;
      ctx_.telemetry->slo()->add_rule(std::move(rule));
    }
  }

  GD_LOG_INFO("ServeEngine: workers=%u max_batch=%u wait=%.0fus "
              "pin_budget=%llu",
              config_.workers, config_.max_batch, config_.max_wait_us,
              static_cast<unsigned long long>(pin_budget_));
}

ServeEngine::ServeEngine(const RunContext& ctx, ServeConfig config,
                         GnnDrive& host)
    : ServeEngine(ctx, resolve_serve_config(std::move(config), host),
                  ServeSubstrate{
                      &host.feature_buffer(), &host.model(), host.gpu(),
                      static_cast<std::uint64_t>(host.effective_extractors()) *
                          host.max_batch_nodes()}) {}

void ServeEngine::start() {
  GD_CHECK_MSG(workers_ == nullptr, "ServeEngine::start called twice");
  // While the workers run, the group holds serve.running (/readyz) and a
  // time-series sampler lease. A worker that throws closes admission.
  workers_ = std::make_unique<StageGroup>(StageGroupOptions{
      &metrics_.gauge("serve.running"),
      ctx_.telemetry != nullptr ? ctx_.telemetry->sampler() : nullptr});
  workers_->feed_from([this] { queue_.close(); });
  workers_->stage("serve", config_.workers, [this](Stage&, std::uint32_t w) {
    worker_loop(w);
  });
  workers_->start();
}

std::future<InferResult> ServeEngine::submit(NodeId node) {
  return queue_.submit(node);
}

void ServeEngine::stop() {
  // The group goes either way; a worker's error surfaces from its stop().
  if (const auto workers = std::move(workers_)) workers->stop();
}

std::shared_ptr<const ServeEngine::ModelSet> ServeEngine::current_models()
    const {
  std::lock_guard lk(models_mu_);
  return models_;
}

void ServeEngine::publish_models(std::shared_ptr<const ModelSet> set) {
  std::lock_guard lk(models_mu_);
  models_ = std::move(set);
  m_model_gen_->set(static_cast<std::int64_t>(models_->version));
}

std::uint64_t ServeEngine::model_generation() const {
  std::lock_guard lk(models_mu_);
  return models_->version;
}

void ServeEngine::refresh_params() {
  auto set = std::make_shared<ModelSet>();
  set->version = model_generation();
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    set->replicas.push_back(std::make_unique<GnnModel>(sub_.params->config()));
    set->replicas.back()->copy_params_from(*sub_.params);
  }
  publish_models(std::move(set));
}

std::uint64_t ServeEngine::hot_swap_from(CheckpointManager& manager,
                                         const ModelFingerprint& expect) {
  // Stage into a scratch model first: a corrupt or absent checkpoint must
  // leave the live replicas untouched.
  GnnModel staged(sub_.params->config());
  auto loaded = manager.load_latest(staged, /*adam=*/nullptr, expect);
  if (!loaded.has_value()) return 0;
  auto set = std::make_shared<ModelSet>();
  set->version = loaded->generation;
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    set->replicas.push_back(std::make_unique<GnnModel>(sub_.params->config()));
    set->replicas.back()->copy_params_from(staged);
  }
  publish_models(std::move(set));
  m_hot_swaps_->add();
  GD_LOG_INFO("ServeEngine: hot-swapped to checkpoint generation %llu",
              static_cast<unsigned long long>(loaded->generation));
  return loaded->generation;
}

void ServeEngine::acquire_pins(std::uint64_t n) {
  std::unique_lock lk(pin_mu_);
  pin_cv_.wait(lk, [&] { return pin_budget_ - pins_in_use_ >= n; });
  pins_in_use_ += n;
  m_pinned_->set(static_cast<std::int64_t>(pins_in_use_));
}

void ServeEngine::release_pins(std::uint64_t n) {
  {
    std::lock_guard lk(pin_mu_);
    GD_CHECK_MSG(pins_in_use_ >= n, "serve pin accounting underflow");
    pins_in_use_ -= n;
    m_pinned_->set(static_cast<std::int64_t>(pins_in_use_));
  }
  pin_cv_.notify_all();
}

void ServeEngine::finish(PendingRequest& r, InferStatus status,
                         std::int32_t cls, std::uint32_t coalesced,
                         TimePoint done) {
  InferResult res;
  res.request_id = r.id;
  res.status = status;
  res.predicted_class = cls;
  res.queue_us = r.queue_us;
  res.total_us = to_seconds(done - r.arrival) * 1e6;
  res.coalesced_with = coalesced;
  switch (status) {
    case InferStatus::kOk:
      m_completed_->add();
      // The SLO latency distribution covers served requests only; shed and
      // failed requests are counted, not timed.
      rm_latency_->add_us(res.total_us);
      break;
    case InferStatus::kShedDeadline:
      m_shed_->add();
      break;
    case InferStatus::kFailed:
      m_failed_->add();
      break;
    case InferStatus::kRejected:
      break;  // resolved by the queue, never reaches here
  }
  r.promise.set_value(std::move(res));
}

void ServeEngine::worker_loop(std::uint32_t worker_id) {
  WorkerState ws;
  ws.topo = std::make_unique<MmapTopology>(*ctx_.dataset, *ctx_.page_cache);
  IoRingConfig rc;
  rc.queue_depth = config_.ring_depth;
  rc.direct = true;  // serving always bypasses the page cache, like training
  rc.max_transfer_bytes = max_segment_bytes_;
  // A request waits on these reads: they start ahead of queued extraction.
  rc.io_class = IoClass::kLatency;
  ws.ring = std::make_unique<IoRing>(*ctx_.ssd, rc, nullptr, ctx_.telemetry);
  ws.hooks = extract_metric_hooks(ctx_.telemetry);
  // The shared coalescing core (core/extract.cpp), as in training, under a
  // serving retry policy: a flat short delay instead of exponential backoff
  // (a serve batch would rather fail fast than sit out a long backoff). The
  // pin budget guarantees the serve share of the standby list covers a
  // batch's slot allocations, and training's reserve covers its own
  // extractors — neither side can deadlock the other.
  const OnDiskLayout& lay = ctx_.dataset->layout();
  ws.env = ExtractEnv{sub_.feature_buffer, &lay,
                      static_cast<std::uint32_t>(lay.feature_row_bytes),
                      ws.ring.get(), staging_.data() + worker_id * arena_bytes_,
                      max_segment_bytes_, inflight_cap_, sub_.gpu,
                      ctx_.telemetry};
  ws.policy.coalesce = config_.coalesce;
  ws.policy.max_retries = config_.max_retries;
  set_timeouts(ws.policy, config_.request_timeout_ms,
               config_.wait_list_timeout_ms);
  ws.policy.backoff = [delay = from_us(std::max(config_.retry_delay_us, 0.0))](
                          std::uint32_t) { return delay; };
  ws.policy.log_epoch = false;  // serve batches carry no epoch
  ws.policy.fail_event = "serve_extract_failed";
  ws.policy.client = FbClient::kServe;
  for (;;) {
    auto batch = coalescer_.collect();
    if (batch.empty()) return;  // queue closed & drained
    // Resolve the replica set at the micro-batch boundary and pin it for
    // the batch's duration — the drain half of drain-and-swap.
    ws.models = current_models();
    ws.model = ws.models->replicas[worker_id].get();
    process_batch(std::move(batch), ws);
    ws.model = nullptr;
    ws.models.reset();  // retire the old set promptly after a swap
  }
}

void ServeEngine::process_batch(std::vector<PendingRequest>&& batch,
                                WorkerState& ws) {
  const std::uint64_t batch_id =
      kServeBatchBase |
      (next_batch_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  SpanTracer* tracer =
      ctx_.telemetry != nullptr ? ctx_.telemetry->tracer() : nullptr;
  const bool tracing = tracer != nullptr && tracer->enabled();
  const auto coalesced = static_cast<std::uint32_t>(batch.size());
  rm_batch_size_->add_us(static_cast<double>(coalesced));

  // Deadline shedding: a request whose SLO already expired while queued is
  // resolved immediately — spending I/O on it cannot make it on-time, and
  // dropping it shrinks the batch for everyone behind it.
  const TimePoint picked = Clock::now();
  std::vector<PendingRequest> active;
  active.reserve(batch.size());
  for (PendingRequest& r : batch) {
    r.queue_us = to_seconds(picked - r.arrival) * 1e6;
    rm_queue_wait_->add_us(r.queue_us);
    if (r.has_deadline && config_.slo.shed_expired && picked > r.deadline) {
      finish(r, InferStatus::kShedDeadline, -1, coalesced, picked);
    } else {
      active.push_back(std::move(r));
    }
  }
  if (active.empty()) return;

  // Merge the surviving requests into one sampled batch. The sampler
  // dedupes repeated seeds; seed_row maps each request back to its logits
  // row (first occurrence wins).
  std::vector<NodeId> seeds;
  seeds.reserve(active.size());
  std::vector<std::uint32_t> seed_row(active.size(), 0);
  for (std::size_t i = 0; i < active.size(); ++i) {
    std::uint32_t row = 0;
    while (row < seeds.size() && seeds[row] != active[i].node) ++row;
    if (row == seeds.size()) seeds.push_back(active[i].node);
    seed_row[i] = row;
  }
  const TimePoint ts = Clock::now();
  SampledBatch sb;
  {
    BusyScope busy(ctx_.telemetry);
    sb = sampler_.sample(batch_id, seeds, *ws.topo, nullptr);
  }
  if (tracing) tracer->record(kSpanServeSample, batch_id, 0, ts, Clock::now());

  bool served = false;
  std::vector<std::int32_t> pred(active.size(), -1);
  // Hot-partition nodes resolve to pinned slots without an allocation, so
  // only the cold residue of the batch draws on the serve pin budget.
  std::uint64_t need = sb.num_nodes();
  if (sub_.feature_buffer->hot_sealed()) {
    std::uint64_t hot = 0;
    for (NodeId v : sb.nodes) {
      if (sub_.feature_buffer->hot_slot(v) != kNoSlot) ++hot;
    }
    need -= hot;
  }
  if (need > pin_budget_) {
    // The batch cannot fit the serve share of the buffer even alone;
    // admitting it to check_and_ref could deadlock against training.
    log_structured(LogLevel::kWarn, "serve_batch_over_budget",
                   {kv("batch", batch_id), kv("nodes", need),
                    kv("budget", pin_budget_)});
  } else {
    acquire_pins(need);
    const TimePoint te = Clock::now();
    ExtractCounters ec;
    ws.policy.batch_id = batch_id;
    const bool extracted =
        extract_batch(sb, ws.env, ws.policy, ws.hooks, ec, nullptr);
    rm_extract_->add_us(to_seconds(Clock::now() - te) * 1e6);
    if (ec.io_errors > 0) m_io_errors_->add(ec.io_errors);
    if (ec.io_retries > 0) m_io_retries_->add(ec.io_retries);
    if (tracing) {
      tracer->record(kSpanServeExtract, batch_id, 0, te, Clock::now());
    }
    if (extracted) {
      const TimePoint ti = Clock::now();
      const std::uint32_t dim = ctx_.dataset->spec().feature_dim;
      Tensor x0(static_cast<std::uint32_t>(sb.num_nodes()), dim);
      Tensor logits;
      const auto run = [&] {
        for (std::uint32_t i = 0; i < sb.num_nodes(); ++i) {
          GD_CHECK_MSG(sb.alias[i] != kNoSlot, "untracked node at infer time");
          std::memcpy(x0.row(i), sub_.feature_buffer->slot_data(sb.alias[i]),
                      dim * 4);
        }
        logits = ws.model->forward(sb, x0);
      };
      if (sub_.gpu != nullptr) {
        sub_.gpu->launch(run);
      } else {
        BusyScope busy(ctx_.telemetry);
        run();
      }
      rm_infer_->add_us(to_seconds(Clock::now() - ti) * 1e6);
      if (tracing) {
        tracer->record(kSpanServeInfer, batch_id, 0, ti, Clock::now());
      }
      for (std::size_t i = 0; i < active.size(); ++i) {
        const float* row = logits.row(seed_row[i]);
        std::uint32_t best = 0;
        for (std::uint32_t c = 1; c < logits.cols(); ++c) {
          if (row[c] > row[best]) best = c;
        }
        pred[i] = static_cast<std::int32_t>(best);
      }
      served = true;
    }
    // Success or failure, every reference taken in pass 1 is dropped here —
    // the zero-slot-leak guarantee the fault tests pin down.
    sub_.feature_buffer->release(sb.nodes);
    release_pins(need);
  }

  const TimePoint done = Clock::now();
  for (std::size_t i = 0; i < active.size(); ++i) {
    finish(active[i], served ? InferStatus::kOk : InferStatus::kFailed,
           pred[i], coalesced, done);
  }
}

ServeReport ServeEngine::report() const {
  const MetricsRegistry::Snapshot now = metrics_.snapshot();
  const auto count = [&](const char* name) {
    return now.counter(name) - base_.counter(name);
  };
  const auto window = [&](const char* name) {
    return now.histogram(name).diff_since(base_.histogram(name));
  };
  ServeReport r;
  r.submitted = count("serve.submitted");
  r.rejected = count("serve.rejected");
  r.completed = count("serve.completed");
  r.failed = count("serve.failed");
  r.shed_deadline = count("serve.shed_deadline");
  r.io_errors = count("serve.io_errors");
  r.io_retries = count("serve.io_retries");
  // serve.batch.size holds one sample per micro-batch whose value is its
  // request count: its count is the batch count, its mean the coalesce
  // factor.
  const LatencyHistogram batch_sizes = window("serve.batch.size");
  r.batches = batch_sizes.count();
  r.coalesce_factor = batch_sizes.mean_us();
  r.queue_wait = StageLatency::of(window("serve.queue_wait.us"));
  r.extract = StageLatency::of(window("serve.extract.us"));
  r.infer = StageLatency::of(window("serve.infer.us"));
  r.latency = StageLatency::of(window("serve.latency.us"));
  // Serve-attributed counters only: training traffic on the shared buffer
  // must not inflate (or dilute) the serve hit rate.
  const FeatureBufferStats fb_now =
      sub_.feature_buffer->stats(FbClient::kServe);
  FeatureBufferStats fb;
  fb.hot_hits = fb_now.hot_hits - fb_base_.hot_hits;
  fb.reuse_hits = fb_now.reuse_hits - fb_base_.reuse_hits;
  fb.wait_hits = fb_now.wait_hits - fb_base_.wait_hits;
  fb.loads = fb_now.loads - fb_base_.loads;
  r.fb_hit_rate = fb.hit_rate();
  r.queue_depth_max = queue_.max_depth();
  return r;
}

}  // namespace gnndrive
