// perf_ledger: the repository's end-to-end + per-layer benchmark.
//
//   perf_ledger --list
//   perf_ledger --workload W --seed N [--seconds S] [--trace 0|1]
//               [--out record.json] [--trace-out spans.json]
//   perf_ledger --seed N [--seconds S] [--trace 0|1] [--out records.json]
//
// The last form runs every workload, each in a fresh child process, so one
// workload's heap and threads cannot perturb the next. A single-workload run
// prints one `workload metric value unit` line per metric, a `record {...}`
// line (the run with its sample counts, also written to --out), and, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}. It
// exits 0 only when every correctness gate held.
//
// --trace 0 (timed run) reports the end-to-end metrics with span tracing
// off; --trace 1 (traced run) reports the per-layer metrics.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <thread>

#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perf {

double seconds_since(TimePoint t0) { return to_seconds(Clock::now() - t0); }

namespace {

constexpr int kDefaultSeconds = 5;
/// Timed runs build the rig this many times and report the median.
constexpr int kSetups = 3;
constexpr double kMinAccuracy = 0.9;
/// One inter-arrival gap at train-serve's 40 req/s: below it, the generator
/// sends every request before the next one is due. Its usual p99 is a few
/// ms of wake-up delay on a loaded host, and that lateness is charged to the
/// request's latency anyway.
constexpr double kMaxGeneratorLateMs = 25.0;
/// Requests behind serve.p99_ms: at least ten lie beyond the p99.
constexpr std::uint32_t kServeRequests = 1000;
constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = kDefaultSeconds;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

/// One run's outcome: the metrics, its sample counts and the gates it
/// failed.
struct Result {
  Metrics metrics;
  Metrics samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

// -- Setup --------------------------------------------------------------------

std::unique_ptr<Rig> setup(const Workload& w) {
  auto rig = std::make_unique<Rig>();
  rig->dataset = std::make_unique<Dataset>(Dataset::build(w.dataset));
  rig->telemetry = std::make_unique<Telemetry>();
  rig->ssd = rig->dataset->make_device(w.ssd);
  rig->ssd->set_telemetry(rig->telemetry.get());
  rig->mem = std::make_unique<HostMemory>(paper_gb(w.host_paper_gb));
  rig->cache = std::make_unique<PageCache>(*rig->mem, *rig->ssd,
                                           rig->telemetry.get());
  rig->ctx = RunContext{rig->dataset.get(), rig->ssd.get(), rig->mem.get(),
                        rig->cache.get(), rig->telemetry.get()};
  // Every workload plans and compiles its layout; compiling the identity
  // plan onto the shipped image is the compiler's no-op path.
  {
    TimePoint t = Clock::now();
    auto plan = std::make_shared<const LayoutPlan>(
        w.train.cache.policy == CachePolicy::kHotness
            ? plan_hotness_layout(*rig->dataset, *rig->cache, w.layout_profile)
            : plan_identity_layout(*rig->dataset));
    rig->layout_plan_s = seconds_since(t);
    t = Clock::now();
    const LayoutCompileStats cs =
        compile_layout(*rig->dataset, std::move(plan), rig->telemetry.get());
    rig->layout_compile_s = seconds_since(t);
    rig->layout_bytes_moved = cs.bytes_moved;
  }
  rig->system = std::make_unique<GnnDrive>(rig->ctx, w.train);
  const std::uint64_t reads_before = rig->ssd->stats().reads;
  const TimePoint t = Clock::now();
  rig->system->ensure_hot_cache();
  rig->cache_warm_s = seconds_since(t);
  rig->cache_prefetch_reads = rig->ssd->stats().reads - reads_before;
  if (w.serve_rate_rps > 0) {
    rig->serve = std::make_unique<ServeEngine>(rig->ctx, w.serve, *rig->system);
    rig->serve->start();
  }
  return rig;
}

// -- Serving load ---------------------------------------------------------------

/// What one serving window saw.
struct ServeOutcome {
  std::vector<double> latency_ms;  ///< per served request
  std::vector<double> late_ms;     ///< submit - due, per request
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t bad_class = 0;
  std::string error;

  /// Accounts one response; `extra_ms` is added to its latency.
  void add(const InferResult& r, double extra_ms, std::uint32_t num_classes) {
    ++submitted;
    if (r.status != InferStatus::kOk) return;
    ++ok;
    if (r.predicted_class < 0 ||
        r.predicted_class >= static_cast<std::int32_t>(num_classes)) {
      ++bad_class;
    }
    latency_ms.push_back(extra_ms + r.total_us / 1e3);
  }
};

/// Open loop: one generator thread sends `count` requests at a fixed rate
/// to uniform-random nodes. Each request is timed from the moment it was
/// due, so a stall of the engine (or of the generator) is charged to every
/// request behind it.
class OpenLoop {
 public:
  OpenLoop(ServeEngine& engine, NodeId num_nodes, double rate_rps,
           std::uint32_t count, std::uint64_t seed,
           std::function<void()> on_done)
      : thread_([this, &engine, num_nodes, rate_rps, count, seed,
                 on_done = std::move(on_done)] {
          try {
            Rng rng(seed);
            sent_.reserve(count);
            const TimePoint t0 = Clock::now();
            for (std::uint32_t i = 0; i < count; ++i) {
              const TimePoint due =
                  t0 + from_us(1e6 * static_cast<double>(i) / rate_rps);
              std::this_thread::sleep_until(due);
              const auto node = static_cast<NodeId>(rng.next_below(num_nodes));
              const TimePoint at = Clock::now();
              sent_.push_back({at - due, engine.submit(node)});
            }
          } catch (const std::exception& e) {
            error_ = e.what();
          }
          if (on_done) on_done();
        }) {}
  ~OpenLoop() {
    if (thread_.joinable()) thread_.join();
  }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Joins the generator and waits for every response.
  ServeOutcome collect(std::uint32_t num_classes) {
    thread_.join();
    ServeOutcome out;
    out.error = error_;
    for (Sent& s : sent_) {
      const double late_ms = to_ms(s.late);
      out.late_ms.push_back(late_ms);
      out.add(s.result.get(), late_ms, num_classes);
    }
    return out;
  }

 private:
  struct Sent {
    Duration late;
    std::future<InferResult> result;
  };
  std::vector<Sent> sent_;
  std::string error_;
  std::thread thread_;  // last: starts after the members it uses exist
};

/// Closed loop: `clients` threads, each sending its next request to a
/// uniform-random node when the previous one returned, `count` in total. A
/// request is due when its predecessor returned; its lateness is the
/// client's own lag.
ServeOutcome closed_loop(ServeEngine& engine, NodeId num_nodes,
                         std::uint32_t clients, std::uint32_t count,
                         std::uint64_t seed, std::uint32_t num_classes) {
  std::vector<ServeOutcome> parts(clients);
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Rng rng(splitmix64(seed ^ c));
        TimePoint due = Clock::now();
        for (std::uint32_t i = c; i < count; i += clients) {
          const auto node = static_cast<NodeId>(rng.next_below(num_nodes));
          parts[c].late_ms.push_back(to_ms(Clock::now() - due));
          const InferResult r = engine.submit(node).get();
          due = Clock::now();
          parts[c].add(r, 0.0, num_classes);
        }
      } catch (const std::exception& e) {
        parts[c].error = e.what();
      }
    });
  }
  ServeOutcome out;
  for (std::uint32_t c = 0; c < clients; ++c) {
    threads[c].join();
    const ServeOutcome& p = parts[c];
    out.latency_ms.insert(out.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    out.late_ms.insert(out.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    out.submitted += p.submitted;
    out.ok += p.ok;
    out.bad_class += p.bad_class;
    if (out.error.empty()) out.error = p.error;
  }
  return out;
}

/// Requests one open-loop window sends: at least kServeRequests, else the
/// rate times the measured seconds.
std::uint32_t request_count(const Workload& w, int seconds) {
  return std::max(kServeRequests, static_cast<std::uint32_t>(
                                      std::ceil(w.serve_rate_rps * seconds)));
}

std::uint64_t request_seed(const Workload& w) {
  return splitmix64(w.train.common.run_seed ^ 0x5e7e5eedull);
}

void check_serving(const ServeOutcome& o, Result& res) {
  res.attempted += o.submitted;
  res.failed += o.submitted - o.ok;
  res.require(o.error.empty(), "serve load failed: " + o.error);
  res.require(o.ok == o.submitted,
              "serve: " + std::to_string(o.submitted - o.ok) +
                  " requests not served (status != ok)");
  res.require(o.bad_class == 0, "serve: predicted class out of range");
  res.require(o.ok >= kServeRequests,
              "serve: only " + std::to_string(o.ok) +
                  " served requests behind serve.p99_ms");
  const double late_p99 = percentile(o.late_ms, 0.99);
  res.require(late_p99 <= kMaxGeneratorLateMs,
              "serve generator fell behind: late p99 " +
                  std::to_string(late_p99) + " ms");
  res.samples["n.requests"] = static_cast<double>(o.submitted);
}

// -- Training -----------------------------------------------------------------

void check_epoch(const EpochStats& s, Result& res) {
  res.attempted += s.result.trained_batches + s.result.failed_batches;
  res.failed += s.result.failed_batches;
  res.require(s.result.failed_batches == 0,
              std::to_string(s.result.failed_batches) + " failed batches");
  res.require(s.interrupted || s.result.trained_batches == s.batches,
              "trained " + std::to_string(s.result.trained_batches) + " of " +
                  std::to_string(s.batches) + " batches");
}

/// The measured epochs. A serving workload runs epochs back-to-back until
/// its request stream ends (request_stop() closes the window); the others
/// run until `seconds` have passed and there are three epochs. With
/// `alternate`, every second epoch runs with span tracing on, and two
/// untraced plus one traced epoch suffice.
struct Window {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::uint64_t trained = 0;
  double wall_s = 0.0;
  ServeOutcome serve;
};

Window run_window(const Workload& w, Rig& rig, int seconds, bool alternate,
                  std::uint64_t& epoch, Result& res) {
  GnnDrive& system = *rig.system;
  Window win;
  std::unique_ptr<OpenLoop> gen;
  if (w.serve_rate_rps > 0) {
    gen = std::make_unique<OpenLoop>(
        *rig.serve, rig.dataset->spec().num_nodes, w.serve_rate_rps,
        request_count(w, seconds), request_seed(w),
        [&system] { system.request_stop(); });
  }
  const TimePoint t0 = Clock::now();
  for (std::size_t n = 0;; ++n) {
    const bool traced = alternate && n % 2 == 1;
    rig.telemetry->set_tracing(traced);
    const EpochStats s = system.run_epoch(epoch++);
    rig.telemetry->set_tracing(false);
    check_epoch(s, res);
    win.trained += s.result.trained_batches;
    if (s.interrupted) break;
    (traced ? win.traced_s : win.untraced_s).push_back(s.epoch_seconds);
    const std::size_t done = win.untraced_s.size() + win.traced_s.size();
    if (gen == nullptr && seconds_since(t0) >= seconds && done >= 3) break;
  }
  win.wall_s = seconds_since(t0);
  if (gen != nullptr) {
    win.serve = gen->collect(rig.dataset->spec().num_classes);
    rig.serve->stop();
  }
  res.require(!win.untraced_s.empty(), "no complete epoch in the window");
  return win;
}

/// Most nodes one request's sampled neighbourhood holds: the target plus
/// each fanout level.
std::uint64_t max_nodes_per_request(const SamplerConfig& s) {
  std::uint64_t level = 1;
  std::uint64_t total = 1;
  for (std::uint32_t f : s.fanouts) total += level *= f;
  return total;
}

/// The run's serving: the window's stream when the workload serves while
/// training. The others serve after training, with the trainer idle, from a
/// replica of the trained model with a feature buffer of its own, just
/// large enough for every worker's largest micro-batch, so requests read
/// their features from the SSD. Sharing the training buffer instead made
/// train-resident's serving (97.5% hits) host-bound, and its latency moved
/// by 5-20% from run to run with the load on the host.
ServeOutcome serving(const Workload& w, Rig& rig, Window& win,
                     ServeReport& report, Result& res) {
  ServeOutcome out;
  if (w.serve_rate_rps > 0) {
    out = std::move(win.serve);
    report = rig.serve->report();
  } else {
    const Dataset& ds = *rig.dataset;
    FeatureBuffer fb(
        FeatureBufferConfig{w.serve.workers * w.serve.max_batch *
                                max_nodes_per_request(w.serve.sampler),
                            ds.spec().feature_dim},
        ds.spec().num_nodes);
    ServeEngine engine(rig.ctx, w.serve,
                       ServeSubstrate{&fb, &rig.system->model(),
                                      rig.system->gpu(), 0});
    engine.start();
    out = closed_loop(engine, ds.spec().num_nodes, w.serve.workers,
                      kServeRequests, request_seed(w), ds.spec().num_classes);
    engine.stop();
    report = engine.report();
  }
  check_serving(out, res);
  return out;
}

std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

/// Once all training and serving stopped: references still held, slots off
/// the standby list other than the hot set's, and pinned entries that are
/// not exactly the hot set.
std::uint64_t leaked_references(GnnDrive& system, NodeId num_nodes) {
  FeatureBuffer& fb = system.feature_buffer();
  std::uint64_t refs = 0;
  std::uint64_t pinned = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const FeatureBuffer::Entry e = fb.entry(v);
    refs += e.ref_count;
    pinned += e.pinned ? 1 : 0;
  }
  const std::uint64_t hot = system.hot_nodes().size();
  return refs + abs_diff(fb.num_slots() - fb.standby_size(), hot) +
         abs_diff(pinned, hot);
}

void check_model_and_buffer(Rig& rig, Result& res) {
  const double acc = rig.system->evaluate();
  res.require(acc >= kMinAccuracy,
              "validation accuracy " + std::to_string(acc) + " < 0.9");
  const std::uint64_t leaks =
      leaked_references(*rig.system, rig.dataset->spec().num_nodes);
  res.require(leaks == 0, std::to_string(leaks) +
                              " leaked feature-buffer references/slots");
}

double serve_ms(const StageLatency& s) { return s.p50_us / 1e3; }

// -- Timed run (end-to-end metrics) -------------------------------------------

Result timed_run(const Workload& w, const Options& opt) {
  Result res;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const TimePoint t = Clock::now();
    rig = setup(w);
    setup_s.push_back(seconds_since(t));
  }
  std::uint64_t epoch = 0;
  const EpochStats first = rig->system->run_epoch(epoch++);
  check_epoch(first, res);
  Window win = run_window(w, *rig, opt.seconds, false, epoch, res);
  // Read before idle serving pins its own staging.
  const double pinned_peak = static_cast<double>(rig->mem->peak_pinned());
  ServeReport report;
  const ServeOutcome serve = serving(w, *rig, win, report, res);
  check_model_and_buffer(*rig, res);

  res.metrics["epoch_s"] = median(win.untraced_s);
  res.metrics["first_epoch_s"] = first.epoch_seconds;
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["serve_p50_ms"] = percentile(serve.latency_ms, 0.50);
  res.metrics["host_pinned_peak_mib"] = pinned_peak / kMiB;
  res.samples["n.setups"] = kSetups;
  res.samples["n.epochs"] = static_cast<double>(win.untraced_s.size());
  res.samples["window_s"] = win.wall_s;
  return res;
}

// -- Traced run (per-layer metrics) -------------------------------------------

std::uint64_t counter(const MetricsRegistry::Snapshot& s,
                      const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

LatencyHistogram histogram(const MetricsRegistry::Snapshot& s,
                           const std::string& name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return h;
  }
  return LatencyHistogram{};
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

Result traced_run(const Workload& w, const Options& opt) {
  Result res;
  std::unique_ptr<Rig> rig = setup(w);
  Rig& r = *rig;
  Metrics& m = res.metrics;
  m["gpu.device_mib"] =
      static_cast<double>(r.system->gpu()->allocated()) / kMiB;
  m["cache.warm_s"] = r.cache_warm_s;
  m["cache.prefetch_reads"] = static_cast<double>(r.cache_prefetch_reads);
  m["layout.plan_s"] = r.layout_plan_s;
  m["layout.compile_s"] = r.layout_compile_s;
  m["layout.bytes_moved"] = static_cast<double>(r.layout_bytes_moved);

  // Page-cache counts include the first epoch: faulting the topology in is
  // the memsim layer's share of first_epoch_s.
  const MetricsRegistry& reg = *r.telemetry->metrics();
  const PageCacheStats pc0 = r.cache->stats();
  const double fault_wait0 =
      static_cast<double>(counter(reg.snapshot(), "pagecache.fault_wait_us"));
  std::uint64_t epoch = 0;
  check_epoch(r.system->run_epoch(epoch++), res);

  // Counts over the measured window, read from the layers' public stats
  // and, where only the registry holds a value, from a snapshot diff.
  const SsdStats ssd0 = r.ssd->stats();
  const FeatureBufferStats fb0 = r.system->feature_buffer().stats();
  const MetricsRegistry::Snapshot reg0 = reg.snapshot();
  Window win = run_window(w, r, opt.seconds, true, epoch, res);
  const SsdStats ssd1 = r.ssd->stats();
  const FeatureBufferStats fb1 = r.system->feature_buffer().stats();
  const PageCacheStats pc1 = r.cache->stats();
  const MetricsRegistry::Snapshot reg1 = reg.snapshot();

  const std::size_t batches_per_epoch =
      div_ceil(r.dataset->train_nodes().size(), w.train.common.batch_seeds);
  const double epochs = ratio(static_cast<double>(win.trained),
                              static_cast<double>(batches_per_epoch));
  const auto per_epoch = [&](double v) { return ratio(v, epochs); };
  const auto reg_delta = [&](const char* name) {
    return static_cast<double>(counter(reg1, name) - counter(reg0, name));
  };

  m["ssd.reads_per_epoch"] =
      per_epoch(static_cast<double>(ssd1.reads - ssd0.reads));
  m["ssd.bytes_per_epoch"] =
      per_epoch(static_cast<double>(ssd1.bytes_read - ssd0.bytes_read));
  m["ssd.util"] = ratio(ssd1.busy_seconds - ssd0.busy_seconds,
                        static_cast<double>(w.ssd.channels) * win.wall_s);
  const LatencyHistogram io = histogram(reg1, "io.request_us")
                                  .diff_since(histogram(reg0, "io.request_us"));
  m["aio.request_p50_us"] = io.percentile_us(0.50);
  m["aio.request_p99_us"] = io.percentile_us(0.99);
  m["extract.rows_per_read"] =
      ratio(reg_delta("io.coalesce.rows"), reg_delta("io.coalesce.segments"));

  FeatureBufferStats fbd;
  fbd.hot_hits = fb1.hot_hits - fb0.hot_hits;
  fbd.reuse_hits = fb1.reuse_hits - fb0.reuse_hits;
  fbd.wait_hits = fb1.wait_hits - fb0.wait_hits;
  fbd.loads = fb1.loads - fb0.loads;
  m["fb.hit_rate"] = fbd.hit_rate();
  m["fb.loads_per_epoch"] = per_epoch(static_cast<double>(fbd.loads));
  m["fb.hot_hits_per_epoch"] = per_epoch(static_cast<double>(fbd.hot_hits));
  m["fb.evictions_per_epoch"] = per_epoch(reg_delta("fb.evictions"));
  m["fb.lock_acquisitions_per_epoch"] = per_epoch(static_cast<double>(
      fb1.batch_lock_acquisitions - fb0.batch_lock_acquisitions));

  const auto per_all_epochs = [&](double v) { return ratio(v, epochs + 1); };
  m["pagecache.misses_per_epoch"] =
      per_all_epochs(static_cast<double>(pc1.misses - pc0.misses));
  m["pagecache.evictions_per_epoch"] =
      per_all_epochs(static_cast<double>(pc1.evictions - pc0.evictions));
  m["pagecache.fault_wait_s_per_epoch"] = per_all_epochs(
      (static_cast<double>(counter(reg1, "pagecache.fault_wait_us")) -
       fault_wait0) /
      1e6);

  m["queue.extract_push_blocked"] =
      per_epoch(reg_delta("pipeline.extract_q.push_blocked"));
  m["queue.extract_pop_blocked"] =
      per_epoch(reg_delta("pipeline.extract_q.pop_blocked"));
  m["queue.train_pop_blocked"] =
      per_epoch(reg_delta("pipeline.train_q.pop_blocked"));

  res.require(!win.traced_s.empty(), "no traced epoch in the window");
  m["obs.trace_overhead_pct"] =
      100.0 * (median(win.traced_s) / median(win.untraced_s) - 1.0);

  ServeReport report;
  const ServeOutcome serve = serving(w, r, win, report, res);
  m["serve.p99_ms"] = percentile(serve.latency_ms, 0.99);
  m["serve.queue_wait_p50_ms"] = serve_ms(report.queue_wait);
  m["serve.extract_p50_ms"] = serve_ms(report.extract);
  m["serve.infer_p50_ms"] = serve_ms(report.infer);
  m["serve.coalesce_factor"] = report.coalesce_factor;
  m["serve.fb_hit_rate"] = report.fb_hit_rate;
  m["serve.gen_late_p99_ms"] = percentile(serve.late_ms, 0.99);

  const ReplayReport replay = run_layer_replay(w, r, opt.trace_out);
  for (const auto& [name, v] : replay.metrics) m[name] = v;
  for (const std::string& f : replay.failures) res.require(false, f);
  // Queueing inside the device and ring: request latency beyond the modeled
  // service time of the replay's mean feature read.
  const Duration service = r.ssd->service_time(
      SsdDevice::Op::kRead, static_cast<std::uint32_t>(replay.mean_read_bytes));
  m["aio.queue_wait_p50_us"] =
      m["aio.request_p50_us"] - to_seconds(service) * 1e6;
  for (const auto& [name, v] : run_substrate_probes(w, r)) m[name] = v;

  check_model_and_buffer(r, res);
  res.samples["n.epochs"] = static_cast<double>(win.untraced_s.size());
  res.samples["n.traced_epochs"] = static_cast<double>(win.traced_s.size());
  res.samples["n.replay_batches"] = w.replay_batches;
  res.samples["window_s"] = win.wall_s;
  return res;
}

// -- Output -------------------------------------------------------------------

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The result object: correct / attempted / failed / metrics.
std::string result_json(const Result& res, const std::vector<MetricDef>& defs) {
  std::string out = "{\"correct\": ";
  out += res.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(defs[i].name) + ": {\"value\": " +
           json_number(res.metrics.at(defs[i].name)) +
           ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return out + "}}";
}

std::string record_json(const Options& opt, const Result& res,
                        const std::vector<MetricDef>& defs) {
  std::string out = "{\"workload\": " + json_string(opt.workload);
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"seconds\": " + std::to_string(opt.seconds);
  out += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  out += ", \"samples\": {";
  bool first = true;
  for (const auto& [name, v] : res.samples) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(v);
    first = false;
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < res.failures.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(res.failures[i]);
  }
  return out + "], \"result\": " + result_json(res, defs) + "}";
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(text.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

int run_one(const Options& opt) {
  const std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (see --list)\n",
                 opt.workload.c_str());
    return 2;
  }
  Result res = opt.trace ? traced_run(*w, opt) : timed_run(*w, opt);
  const std::vector<MetricDef>& defs =
      opt.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) {
    const auto it = res.metrics.find(d.name);
    if (it == res.metrics.end() || !std::isfinite(it->second)) {
      res.require(false, std::string("metric ") + d.name + " not measured");
      res.metrics[d.name] = 0.0;
    }
    std::printf("%s %s %s %s\n", w->name.c_str(), d.name,
                json_number(res.metrics[d.name]).c_str(), d.unit);
  }
  for (const auto& [name, v] : res.samples) {
    std::printf("%s %s %s %s\n", w->name.c_str(), name.c_str(),
                json_number(v).c_str(),
                name.rfind("n.", 0) == 0 ? "count" : "s");
  }
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "%s INVALID: %s\n", w->name.c_str(), f.c_str());
  }
  const std::string record = record_json(opt, res, defs);
  std::printf("record %s\n", record.c_str());
  if (!opt.out.empty() && !write_file(opt.out, record + "\n")) {
    res.require(false, "cannot write " + opt.out);
  }
  std::printf("%s\n", result_json(res, defs).c_str());
  std::fflush(stdout);
  return res.failures.empty() ? 0 : 1;
}

// -- All workloads, one child process each ------------------------------------

/// Runs `argv` with stdout on a pipe; echoes its lines and returns the
/// `record` line (empty if none) and the exit status.
std::pair<std::string, int> run_child(std::vector<std::string> args) {
  int fds[2];
  if (pipe(fds) != 0) return {"", -1};
  const pid_t pid = fork();
  if (pid < 0) return {"", -1};
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::FILE* in = fdopen(fds[0], "r");
  std::string line;
  std::string record;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c != '\n') {
      line += static_cast<char>(c);
      continue;
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    if (line.rfind("record ", 0) == 0) record = line.substr(7);
    line.clear();
  }
  std::fclose(in);
  int status = 0;
  waitpid(pid, &status, 0);
  return {record, WIFEXITED(status) ? WEXITSTATUS(status) : -1};
}

int run_all(const Options& opt, const char* argv0) {
  std::string records = "[";
  int failed = 0;
  for (const Workload& w : workloads()) {
    const auto [record, status] = run_child(
        {argv0, "--workload", w.name, "--seed", std::to_string(opt.seed),
         "--seconds", std::to_string(opt.seconds), "--trace",
         opt.trace ? "1" : "0"});
    if (status != 0) ++failed;
    if (!record.empty()) records += (records.size() > 1 ? ",\n " : "") + record;
  }
  records += "]\n";
  if (!opt.out.empty() && !write_file(opt.out, records)) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  std::printf("%zu workloads, %d invalid\n", workloads().size(), failed);
  return failed == 0 ? 0 : 1;
}

void list() {
  std::printf("workloads:\n");
  for (const Workload& w : workloads()) {
    std::printf("  %-17s %s\n", w.name.c_str(), w.why.c_str());
  }
  std::printf("end-to-end metrics (--trace 0):\n");
  for (const MetricDef& d : end_to_end_metrics()) {
    std::printf("  %-34s %-6s %s\n", d.name, d.unit, d.layer);
  }
  std::printf("per-layer metrics (--trace 1):\n");
  for (const MetricDef& d : per_layer_metrics()) {
    std::printf("  %-34s %-6s %s\n", d.name, d.unit, d.layer);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_ledger --list\n"
               "       perf_ledger [--workload W] [--seed N] [--seconds S] "
               "[--trace 0|1] [--out FILE] [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  perf::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list") {
      perf::list();
      return 0;
    } else if (a == "--trace") {
      // A bare --trace means --trace 1.
      opt.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        opt.trace = argv[++i][0] == '1';
      }
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::max(1, std::atoi(argv[++i]));
    } else if (a == "--out" && has_value) {
      opt.out = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return perf::usage();
    }
  }
  try {
    return opt.workload.empty() ? perf::run_all(opt, argv[0])
                                : perf::run_one(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger: %s\n", e.what());
    return 1;
  }
}
