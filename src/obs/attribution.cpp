#include "obs/attribution.hpp"

#include <cstdio>

#include "obs/exposition.hpp"
#include "obs/timeseries.hpp"
#include "util/logging.hpp"

namespace gnndrive {

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

std::uint64_t counter_delta(const MetricsRegistry::Snapshot& begin,
                            const MetricsRegistry::Snapshot& end,
                            const char* name) {
  const std::uint64_t lo = begin.counter(name);
  const std::uint64_t hi = end.counter(name);
  return hi > lo ? hi - lo : 0;
}

/// Sum-of-samples delta for a histogram series, in microseconds.
double hist_sum_delta_us(const MetricsRegistry::Snapshot& begin,
                         const MetricsRegistry::Snapshot& end,
                         const char* name) {
  return std::max(0.0, end.histogram(name).sum_us() -
                           begin.histogram(name).sum_us());
}

std::string pct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%", clamp01(frac) * 100.0);
  return buf;
}

const char* verdict_label(AttributionReport::Verdict v) {
  switch (v) {
    case AttributionReport::Verdict::kIdle: return "idle";
    case AttributionReport::Verdict::kBalanced: return "balanced";
    case AttributionReport::Verdict::kIoCongested: return "I/O-congested";
    case AttributionReport::Verdict::kMemoryContended:
      return "memory-contended";
    case AttributionReport::Verdict::kComputeBound: return "compute-bound";
  }
  return "unknown";
}

}  // namespace

const char* AttributionReport::verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kIdle: return "idle";
    case Verdict::kBalanced: return "balanced";
    case Verdict::kIoCongested: return "io_congested";
    case Verdict::kMemoryContended: return "memory_contended";
    case Verdict::kComputeBound: return "compute_bound";
  }
  return "unknown";
}

std::string AttributionReport::summary() const {
  std::string out = verdict_label(verdict);
  out += ": ";
  const std::size_t n = std::min<std::size_t>(ranked.size(), 3);
  if (n == 0) {
    out += "no activity in window";
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ", ";
    out += ranked[i].resource;
    out += ' ';
    out += ranked[i].evidence;
  }
  return out;
}

std::string AttributionReport::to_json() const {
  std::string out = "{\"verdict\":\"";
  out += verdict_name(verdict);
  out += "\",\"binding\":\"";
  out += json_escape(binding);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\",\"window_seconds\":%.6f,\"scope\":\"",
                window_seconds);
  out += buf;
  out += json_escape(scope);
  out += "\",\"summary\":\"";
  out += json_escape(summary());
  out += "\",\"resources\":[";
  bool first = true;
  for (const ResourceScore& r : ranked) {
    if (!first) out += ',';
    first = false;
    out += "{\"resource\":\"";
    out += json_escape(r.resource);
    std::snprintf(buf, sizeof(buf),
                  "\",\"utilization\":%.4f,\"saturation\":%.4f,\"evidence\":\"",
                  r.utilization, r.saturation);
    out += buf;
    out += json_escape(r.evidence);
    out += "\"}";
  }
  out += "]}";
  return out;
}

BottleneckAttributor::BottleneckAttributor(AttributionConfig config)
    : config_(config) {}

void BottleneckAttributor::set_config(const AttributionConfig& config) {
  std::lock_guard lk(mu_);
  config_ = config;
}

AttributionConfig BottleneckAttributor::config() const {
  std::lock_guard lk(mu_);
  return config_;
}

AttributionReport BottleneckAttributor::attribute(
    const MetricsRegistry::Snapshot& begin,
    const MetricsRegistry::Snapshot& end, double dt_seconds,
    const std::string& scope) const {
  const AttributionConfig cfg = config();
  AttributionReport rep;
  rep.scope = scope;
  rep.window_seconds = std::max(0.0, dt_seconds);
  if (dt_seconds <= 0.0) return rep;
  const double dt = dt_seconds;
  char ev[128];

  // -- ssd: device utilization + queue saturation ---------------------------
  ResourceScore ssd;
  ssd.resource = "ssd";
  const double busy_s =
      static_cast<double>(counter_delta(begin, end, "ssd.busy_us")) / 1e6;
  const double channels = std::max(1u, cfg.ssd_channels);
  ssd.utilization = clamp01(busy_s / (dt * channels));
  const std::int64_t pending = end.gauge("ssd.pending").value;
  const double queued =
      std::max<double>(0.0, static_cast<double>(pending) - channels);
  ssd.saturation = clamp01(queued / channels);
  std::snprintf(ev, sizeof(ev), "queue %s busy, %lld pending",
                pct(ssd.utilization).c_str(),
                static_cast<long long>(pending));
  ssd.evidence = ev;

  // -- pagecache: stall time lost to faults, churn = evictions per miss ----
  ResourceScore pc;
  pc.resource = "pagecache";
  const std::uint64_t pc_hits = counter_delta(begin, end, "pagecache.hits");
  const std::uint64_t pc_miss = counter_delta(begin, end, "pagecache.misses");
  const std::uint64_t pc_evic =
      counter_delta(begin, end, "pagecache.evictions");
  const std::uint64_t pc_total = pc_hits + pc_miss;
  const double fault_s =
      static_cast<double>(
          counter_delta(begin, end, "pagecache.fault_wait_us")) /
      1e6;
  const double fault_frac = fault_s / dt;  // summed across threads; may be >1
  const double thrash =
      pc_miss > 0 ? static_cast<double>(pc_evic) / static_cast<double>(pc_miss)
                  : 0.0;
  // A cold cache misses everything once without being a bottleneck, and a
  // mildly overflowing cache evicts per miss without costing real time. The
  // contention signature is churn (pages recycling under the accessor)
  // *and* a meaningful share of the window spent blocked on faults.
  const bool pc_active = pc_miss >= cfg.min_pagecache_misses;
  pc.utilization = pc_active ? clamp01(fault_frac) : 0.0;
  pc.saturation = pc_active ? clamp01(std::min(fault_frac, thrash)) : 0.0;
  std::snprintf(ev, sizeof(ev),
                "%s of window faulting, evictions/miss %.2f",
                pct(fault_frac).c_str(), thrash);
  pc.evidence = ev;
  const bool contended = pc_active && thrash > cfg.contended_thrash &&
                         fault_frac > cfg.contended_fault_fraction;

  // -- pipeline stages: busy fraction across their thread pools -------------
  ResourceScore sampler;
  sampler.resource = "sampler";
  sampler.utilization =
      clamp01(hist_sum_delta_us(begin, end, "stage.sample.us") / 1e6 /
              (dt * std::max(1u, cfg.num_samplers)));
  std::snprintf(ev, sizeof(ev), "%s busy", pct(sampler.utilization).c_str());
  sampler.evidence = ev;

  ResourceScore extractor;
  extractor.resource = "extractor";
  extractor.utilization =
      clamp01(hist_sum_delta_us(begin, end, "stage.extract.us") / 1e6 /
              (dt * std::max(1u, cfg.num_extractors)));
  std::snprintf(ev, sizeof(ev), "%s occupied (includes ssd wait)",
                pct(extractor.utilization).c_str());
  extractor.evidence = ev;

  ResourceScore trainer;
  trainer.resource = "trainer";
  trainer.utilization =
      clamp01(hist_sum_delta_us(begin, end, "stage.train.us") / 1e6 / dt);
  const double train_q_depth =
      static_cast<double>(end.gauge("pipeline.train_q.depth").value);
  trainer.saturation =
      clamp01(train_q_depth / std::max(1u, cfg.train_queue_cap));
  std::snprintf(ev, sizeof(ev), "%s busy", pct(trainer.utilization).c_str());
  trainer.evidence = ev;

  // -- queues: instantaneous fill + whether producers actually blocked ------
  ResourceScore extract_q;
  extract_q.resource = "extract_q";
  extract_q.utilization = clamp01(
      static_cast<double>(end.gauge("pipeline.extract_q.depth").value) /
      std::max(1u, cfg.extract_queue_cap));
  const std::uint64_t eq_blocked =
      counter_delta(begin, end, "pipeline.extract_q.push_blocked");
  extract_q.saturation = eq_blocked > 0 ? extract_q.utilization : 0.0;
  std::snprintf(ev, sizeof(ev), "%s full, +%llu producer blocks",
                pct(extract_q.utilization).c_str(),
                static_cast<unsigned long long>(eq_blocked));
  extract_q.evidence = ev;

  // -- feature-buffer cold region: occupancy gated on real slot waits -------
  ResourceScore fb;
  fb.resource = "fb.cold";
  const std::int64_t standby = end.gauge("fb.standby").value;
  const std::int64_t cold = end.gauge("fb.cold.slots").value;
  const double occupancy =
      cold > 0 ? 1.0 - static_cast<double>(standby) / static_cast<double>(cold)
               : 0.0;
  const std::uint64_t slot_waits = counter_delta(begin, end, "fb.slot_waits");
  fb.utilization = clamp01(occupancy);
  fb.saturation = slot_waits > 0 ? clamp01(occupancy) : 0.0;
  std::snprintf(ev, sizeof(ev), "%s occupied, +%llu slot waits",
                pct(fb.utilization).c_str(),
                static_cast<unsigned long long>(slot_waits));
  fb.evidence = ev;

  // -- staging arenas: bytes in flight vs their high watermark --------------
  ResourceScore staging;
  staging.resource = "staging";
  const std::int64_t stg_use = end.gauge("io.staging_in_use").value;
  const std::int64_t stg_hw = end.gauge("io.staging_in_use").max;
  staging.utilization =
      stg_hw > 0 ? clamp01(static_cast<double>(stg_use) /
                           static_cast<double>(stg_hw))
                 : 0.0;
  std::snprintf(ev, sizeof(ev), "%lld/%lld bytes in use",
                static_cast<long long>(stg_use),
                static_cast<long long>(stg_hw));
  staging.evidence = ev;

  rep.ranked = {ssd, pc, sampler, extractor, trainer, extract_q, fb, staging};

  // -- serve workers: windowed tail latency vs the SLO ----------------------
  if (cfg.serve_slo_us > 0.0) {
    const char* kLatency = "serve.latency.us";
    const LatencyHistogram lat =
        end.histogram(kLatency).diff_since(begin.histogram(kLatency));
    if (lat.count() > 0) {
      ResourceScore serve;
      serve.resource = "serve";
      const double p99 = lat.percentile_us(0.99);
      serve.utilization = clamp01(p99 / cfg.serve_slo_us);
      std::snprintf(ev, sizeof(ev), "p99 %.0fus vs SLO %.0fus", p99,
                    cfg.serve_slo_us);
      serve.evidence = ev;
      rep.ranked.push_back(serve);
    }
  }

  std::stable_sort(rep.ranked.begin(), rep.ranked.end(),
                   [](const ResourceScore& a, const ResourceScore& b) {
                     return a.pressure() > b.pressure();
                   });

  // -- verdict --------------------------------------------------------------
  const bool active = busy_s > 0.0 || pc_total > 0 ||
                      sampler.utilization > 0.0 || trainer.utilization > 0.0;
  using V = AttributionReport::Verdict;
  if (!active) {
    rep.verdict = V::kIdle;
    rep.binding = rep.ranked.empty() ? "" : rep.ranked.front().resource;
    return rep;
  }
  if (contended) {
    // Memory contention outranks raw device business: the thrashing cache
    // is *why* the device is busy (the paper's Fig. 2 baselines).
    rep.verdict = V::kMemoryContended;
    rep.binding = "pagecache";
  } else if (ssd.utilization >= cfg.busy_threshold &&
             trainer.utilization <= cfg.idle_threshold) {
    rep.verdict = V::kIoCongested;
    rep.binding = "ssd";
  } else if (trainer.utilization >= cfg.busy_threshold &&
             ssd.utilization <= trainer.utilization) {
    rep.verdict = V::kComputeBound;
    rep.binding = "trainer";
  } else if (!rep.ranked.empty() &&
             rep.ranked.front().pressure() >= cfg.busy_threshold) {
    const std::string& top = rep.ranked.front().resource;
    rep.binding = top;
    if (top == "ssd" || top == "staging" ||
        (top == "extractor" && ssd.utilization > cfg.idle_threshold)) {
      rep.verdict = V::kIoCongested;
    } else if (top == "pagecache") {
      // Fault stalls without churn (a cold cache warming up) are device
      // time, not a cache working against its capacity.
      rep.verdict = thrash > cfg.contended_thrash ? V::kMemoryContended
                                                  : V::kIoCongested;
    } else if (top == "fb.cold") {
      rep.verdict = V::kMemoryContended;
    } else if (top == "trainer" || top == "sampler" || top == "extractor") {
      rep.verdict = V::kComputeBound;
    } else {
      rep.verdict = V::kBalanced;
    }
  } else {
    rep.verdict = V::kBalanced;
    rep.binding = rep.ranked.empty() ? "" : rep.ranked.front().resource;
  }
  // Keep the binding resource at the head of the ranking so summary() leads
  // with it even when a non-binding score is numerically higher.
  for (std::size_t i = 0; i < rep.ranked.size(); ++i) {
    if (rep.ranked[i].resource == rep.binding && i != 0) {
      std::rotate(rep.ranked.begin(), rep.ranked.begin() + i,
                  rep.ranked.begin() + i + 1);
      break;
    }
  }
  return rep;
}

AttributionReport BottleneckAttributor::attribute_window(
    const TimeSeriesSampler& ts, double window_s) const {
  const std::vector<TimeSeriesSample> v = ts.samples();
  if (v.size() < 2) {
    AttributionReport rep;
    rep.scope = "window";
    return rep;
  }
  const TimeSeriesSample& end = v.back();
  const TimeSeriesSample* begin = &v[v.size() - 2];
  for (const TimeSeriesSample& s : v) {
    if (end.t_seconds - s.t_seconds <= window_s) {
      begin = &s;
      break;
    }
  }
  return attribute(begin->snap, end.snap, end.t_seconds - begin->t_seconds,
                   "window");
}

void BottleneckAttributor::publish(AttributionReport report) {
  log_structured(LogLevel::kInfo, "attribution",
                 {kv("scope", report.scope),
                  kv("verdict", AttributionReport::verdict_name(report.verdict)),
                  kv("binding", report.binding),
                  kv("window_s", report.window_seconds)});
  std::lock_guard lk(mu_);
  latest_ = std::move(report);
  has_latest_ = true;
}

bool BottleneckAttributor::has_report() const {
  std::lock_guard lk(mu_);
  return has_latest_;
}

AttributionReport BottleneckAttributor::latest() const {
  std::lock_guard lk(mu_);
  return latest_;
}

}  // namespace gnndrive
