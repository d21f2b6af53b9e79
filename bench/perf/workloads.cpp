// The ledger's five workloads and its metric catalog.
//
// Every knob is written out here on purpose: the benchmark must not move
// when bench/bench_common or the library's defaults change. Scale
// conventions are the repository's: node counts are paper / 500, one
// paper-GB of host or device memory is 2 MiB, a mini-batch is 4 seeds
// (paper 1000 / 250).
#include "ledger.hpp"

#include "util/rng.hpp"

namespace perf {

namespace {

/// papers100m-mini: 111M nodes / 500, 1.6B edges / 500, dim 128, 32 classes,
/// and the 0.25x training split (0.011 * 0.25 -> 610 seeds, 153 batches).
DatasetSpec papers100m_mini() {
  DatasetSpec d;
  d.name = "papers100m";
  d.num_nodes = 222000;
  d.num_edges = 3200000;
  d.feature_dim = 128;
  d.num_classes = 32;
  d.train_fraction = 0.011 * 0.25;
  d.intra_prob = 0.6;
  d.skew = 2.0;
  d.scramble_ids = false;
  d.seed = 0x9a9e50ull;
  return d;
}

/// twitter-mini: 41.7M nodes / 500 (84k), 1.5B edges / 500, dim 128,
/// 16 classes, the full 1% training split (840 seeds, 210 batches).
DatasetSpec twitter_mini() {
  DatasetSpec d;
  d.name = "twitter";
  d.num_nodes = 84000;
  d.num_edges = 3000000;
  d.feature_dim = 128;
  d.num_classes = 16;
  d.train_fraction = 0.01;
  d.intra_prob = 0.6;
  d.skew = 2.0;
  d.scramble_ids = false;
  d.seed = 0x714774ull;
  return d;
}

/// SATA-class PM883 stand-in: 80 us base read, 2000 MB/s, 16 channels.
SsdConfig default_ssd() {
  SsdConfig s;
  s.read_latency_us = 80.0;
  s.write_latency_us = 25.0;
  s.bandwidth_mb_s = 2000.0;
  s.channels = 16;
  s.time_scale = 1.0;
  return s;
}

/// GNNDrive-GPU with the paper's knobs: GraphSAGE (10,10,10), hidden 32,
/// 4 samplers, 4 extractors, queues 6/4, ring 256, coalescing on, LRU
/// feature buffer, direct I/O, a 24 paper-GB device.
GnnDriveConfig gnndrive_gpu() {
  GnnDriveConfig c;
  c.common.model.kind = ModelKind::kSage;
  c.common.model.in_dim = 128;      // resolved from the dataset
  c.common.model.hidden_dim = 32;
  c.common.model.num_classes = 16;  // resolved from the dataset
  c.common.model.num_layers = 3;    // resolved from the fanouts
  c.common.model.gat_heads = 2;
  c.common.model.seed = 0xD1CEull;
  c.common.sampler.fanouts = {10, 10, 10};
  c.common.sampler.seed = 1;
  c.common.batch_seeds = 4;
  c.common.adam.lr = 3e-3f;
  c.common.adam.beta1 = 0.9f;
  c.common.adam.beta2 = 0.999f;
  c.common.adam.eps = 1e-8f;
  c.common.sample_only = false;
  c.common.run_seed = 0;

  c.fault.max_retries = 3;
  c.fault.backoff_initial_us = 100.0;
  c.fault.backoff_multiplier = 4.0;
  c.fault.backoff_jitter = 0.25;
  c.fault.request_timeout_ms = 250.0;
  c.fault.wait_list_timeout_ms = 10000.0;
  c.fault.fail_fast = false;

  c.coalesce.enabled = true;
  c.coalesce.max_coalesce_bytes = 24 * 1024;
  c.coalesce.max_rows_per_read = 64;
  c.coalesce.max_gap_bytes = 12 * 1024;

  c.cache.policy = CachePolicy::kLru;
  c.cache.hot_fraction = 0.5;
  c.cache.presample_batches = 64;

  c.num_samplers = 4;
  c.num_extractors = 4;
  c.extract_queue_cap = 6;
  c.train_queue_cap = 4;
  c.ring_depth = 256;
  c.cpu_training = false;
  c.direct_io = true;
  c.gds_mode = false;
  c.cpu_flops_per_s = 0.0;
  c.feature_buffer_scale = 1.0;
  c.staging_fraction = 0.5;

  c.gpu.device_memory_bytes = paper_gb(24.0);
  c.gpu.pcie_bandwidth_mb_s = 12000.0;
  c.gpu.copy_overhead_us = 1.5;
  // A modeled kernel rate, about half of what one host core reaches on these
  // GraphSAGE batches (~8 GFLOP/s), so a training step costs modeled device
  // time like an SSD read does. Host CPU speed drifts by ~10% within a
  // minute on a shared VM; with the host rate (0 = "ideal device") the
  // trainer-bound workload's epoch time drifted with it.
  c.gpu.gpu_flops_per_s = 4e9;
  c.gpu.time_scale = 1.0;

  c.ckpt.enabled = false;
  c.ckpt.dir = "";
  c.ckpt.interval_batches = 0;
  c.ckpt.keep_last = 2;
  c.ckpt.fsync = true;
  c.record_batch_losses = false;
  return c;
}

/// Serving: 2 workers, micro-batches of up to 8 requests within 300 us,
/// the training fanouts, no deadline (every request is served).
ServeConfig serve_config() {
  ServeConfig s;
  s.sampler.fanouts = {10, 10, 10};
  s.sampler.seed = 1;
  s.workers = 2;
  s.queue_capacity = 1024;
  s.max_batch = 8;
  s.max_wait_us = 300.0;
  s.slo.deadline_ms = 0.0;
  s.slo.shed_expired = true;
  s.ring_depth = 64;
  s.max_retries = 3;
  s.retry_delay_us = 50.0;
  s.request_timeout_ms = 250.0;
  s.wait_list_timeout_ms = 10000.0;
  s.coalesce.enabled = true;
  s.coalesce.max_coalesce_bytes = 24 * 1024;
  s.coalesce.max_rows_per_read = 64;
  s.coalesce.max_gap_bytes = 12 * 1024;
  return s;
}

/// Hotness layout profile: 256 sampled warm-up batches with the training
/// sampler and batch size.
HotnessProfileConfig layout_profile() {
  HotnessProfileConfig p;
  p.sampler.fanouts = {10, 10, 10};
  p.sampler.seed = 1;
  p.batch_seeds = 4;
  p.profile_seed = 0x1a70e5ull;
  p.presample_batches = 256;
  return p;
}

Workload base(const char* name, const char* why, DatasetSpec dataset) {
  Workload w;
  w.name = name;
  w.why = why;
  w.dataset = std::move(dataset);
  w.ssd = default_ssd();
  w.host_paper_gb = 32.0;
  w.train = gnndrive_gpu();
  w.layout_profile = layout_profile();
  w.serve = serve_config();
  // Idle serving: one closed-loop client per serve worker, so requests
  // never queue and a scheduler stall delays at most two of them.
  w.serve_rate_rps = 0.0;
  w.replay_batches = 48;
  return w;
}

std::vector<Workload> build_workloads() {
  std::vector<Workload> out;

  // The SSD's channels are near saturation and the page cache is idle, so
  // storage / aio / extract changes show here.
  out.push_back(base("train-io",
                     "papers100m-mini at 32 paper-GB: SSD-bound extraction, "
                     "idle page cache",
                     papers100m_mini()));

  // The paper's memory contention (Fig. 9): an 8 paper-GB host leaves the
  // page cache too small for the topology, so sampling thrashes it.
  {
    Workload w = base("train-memtight",
                      "papers100m-mini at 8 paper-GB: page cache thrashes "
                      "topology, samplers bound",
                      papers100m_mini());
    w.host_paper_gb = 8.0;
    // A serial batch samples for ~50 ms here; fewer batches keep the
    // traced run short.
    w.replay_batches = 24;
    out.push_back(std::move(w));
  }

  // ROADMAP's best configuration, the only workload where cache/ and
  // layout/ do the work. Ids are scrambled so the identity layout is
  // uncorrelated with access frequency, and skew 3.0 concentrates traffic
  // on a hot head.
  {
    DatasetSpec d = papers100m_mini();
    d.scramble_ids = true;
    d.skew = 3.0;
    Workload w = base("train-hot-packed",
                      "scrambled skew-3 papers100m-mini, hotness layout + "
                      "hotness cache: setup does the work",
                      d);
    w.train.cache.policy = CachePolicy::kHotness;
    w.train.cache.hot_fraction = 0.5;
    out.push_back(std::move(w));
  }

  // The working set fits the feature buffer (scale 16, capped by device
  // memory), so the modeled GPU and the host-side pipeline that must keep
  // it fed set the pace; I/O changes should not move this workload.
  {
    Workload w = base("train-resident",
                      "twitter-mini with a 16x feature buffer: working set "
                      "resident, trainer bound",
                      twitter_mini());
    w.train.feature_buffer_scale = 16.0;
    out.push_back(std::move(w));
  }

  // Training and serving contend for the SSD queue and the feature-buffer
  // lock: the paper's I/O congestion seen from a latency-sensitive client.
  {
    Workload w = base("train-serve",
                      "train-io plus open-loop serving at 40 req/s during "
                      "training: SSD congestion",
                      papers100m_mini());
    // 40 req/s keeps the engine out of heavy coalescing, where latency and
    // epoch time feed back on each other (at 100 req/s both spread ~10%
    // across runs, at 50 req/s epoch_s spread 4%); 1000 requests take 25 s.
    w.serve_rate_rps = 40.0;
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build_workloads();
  return all;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  for (const Workload& w : workloads()) {
    if (w.name != name) continue;
    auto out = std::make_unique<Workload>(w);
    // --seed drives the batch shuffle and, through run_seed, the request
    // stream. The graph stays fixed: a graph per seed made the spread of
    // serve latency across seeds wider than any useful bound.
    out->train.common.run_seed = splitmix64(seed ^ 0x5417ull);
    return out;
  }
  return nullptr;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"epoch_s", "s", "end_to_end"},
      {"first_epoch_s", "s", "end_to_end"},
      {"setup_s", "s", "end_to_end"},
      {"serve_p50_ms", "ms", "end_to_end"},
      {"host_pinned_peak_mib", "MiB", "end_to_end"},
  };
  return m;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = {
      {"ssd.reads_per_epoch", "count", "storage"},
      {"ssd.bytes_per_epoch", "bytes", "storage"},
      {"ssd.util", "ratio", "storage"},
      {"ssd.model_err_pct", "%", "storage"},
      {"ssd.submit_ns", "ns", "storage"},
      {"aio.request_p50_us", "us", "aio"},
      {"aio.request_p99_us", "us", "aio"},
      {"aio.queue_wait_p50_us", "us", "aio"},
      {"aio.submit_ns_per_sqe", "ns", "aio"},
      {"aio.reap_ns_per_cqe", "ns", "aio"},
      {"extract.rows_per_read", "ratio", "core/extract"},
      {"extract.read_amplification", "ratio", "core/extract"},
      {"extract.plan_ns_per_row", "ns", "core/extract"},
      {"extract.submit_ms", "ms", "core/extract"},
      {"extract.ssd_wait_ms", "ms", "core/extract"},
      {"extract.copy_wait_ms", "ms", "core/extract"},
      {"extract.host_ms", "ms", "core/extract"},
      {"fb.hit_rate", "ratio", "core/feature_buffer"},
      {"fb.loads_per_epoch", "count", "core/feature_buffer"},
      {"fb.evictions_per_epoch", "count", "core/feature_buffer"},
      {"fb.hot_hits_per_epoch", "count", "core/feature_buffer"},
      {"fb.lock_acquisitions_per_epoch", "count", "core/feature_buffer"},
      {"fb.triage_us", "us", "core/feature_buffer"},
      {"fb.release_us", "us", "core/feature_buffer"},
      {"pagecache.misses_per_epoch", "count", "memsim"},
      {"pagecache.evictions_per_epoch", "count", "memsim"},
      {"pagecache.fault_wait_s_per_epoch", "s", "memsim"},
      {"pagecache.hit_ns", "ns", "memsim"},
      {"sampler.sample_ms", "ms", "sampling"},
      {"sampler.sample_p50_ms", "ms", "sampling"},
      {"queue.extract_push_blocked", "count", "core/pipeline"},
      {"queue.extract_pop_blocked", "count", "core/pipeline"},
      {"queue.train_pop_blocked", "count", "core/pipeline"},
      {"trainer.gather_ms", "ms", "gnn"},
      {"trainer.fwd_bwd_ms", "ms", "gnn"},
      {"trainer.adam_ms", "ms", "gnn"},
      {"gpu.device_mib", "MiB", "gpu"},
      {"cache.warm_s", "s", "cache"},
      {"cache.prefetch_reads", "count", "cache"},
      {"layout.plan_s", "s", "layout"},
      {"layout.compile_s", "s", "layout"},
      {"layout.bytes_moved", "bytes", "layout"},
      {"serve.p99_ms", "ms", "serve"},
      {"serve.queue_wait_p50_ms", "ms", "serve"},
      {"serve.extract_p50_ms", "ms", "serve"},
      {"serve.infer_p50_ms", "ms", "serve"},
      {"serve.coalesce_factor", "ratio", "serve"},
      {"serve.fb_hit_rate", "ratio", "serve"},
      {"serve.gen_late_p99_ms", "ms", "serve"},
      {"obs.trace_overhead_pct", "%", "obs"},
      {"replay.unattributed_pct", "%", "replay"},
  };
  return m;
}

}  // namespace perf
