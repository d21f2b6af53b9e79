// Automatic bottleneck attribution.
//
// GNNDrive's whole argument is a diagnosis: disk-based GNN training is
// bound either by memory contention (buffered I/O thrashing the OS page
// cache, the paper's Fig. 2 baselines) or by I/O congestion (the SSD queue
// saturated while compute idles, Fig. 3/11). The attributor automates that
// diagnosis at runtime: given two registry snapshots bounding a window
// (one epoch, or a sampling window from the TimeSeriesSampler) it derives
// utilization and saturation for each resource in the pipeline —
//
//   ssd        Δssd.busy_us / (dt x channels), queue depth (ssd.pending)
//   pagecache  windowed fault-stall fraction and evictions-per-miss
//   sampler    Δstage.sample.us busy fraction across sampler threads
//   extractor  Δstage.extract.us occupancy across extractor threads
//   trainer    Δstage.train.us busy fraction (one trainer thread)
//   extract_q / train_q   depth vs capacity + producer-blocked deltas
//   fb.cold    cold-slot occupancy, gated on actual slot waits
//   staging    staging-arena bytes in use vs their high watermark
//   serve      windowed p99 of serve.latency.us vs the configured SLO
//
// — and emits a ranked report naming the binding constraint in human and
// JSON form ("I/O-congested: ssd 97% busy, trainer 41% busy"). The report
// is the signal plane the ROADMAP's adaptive train/serve co-scheduler will
// consume; today it feeds the /attribution endpoint, the structured log
// and the per-epoch summary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace gnndrive {

class TimeSeriesSampler;

/// Pipeline topology + thresholds the scores are normalized against. The
/// pipeline refreshes the topology half at every epoch start.
struct AttributionConfig {
  std::uint32_t num_samplers = 4;
  std::uint32_t num_extractors = 4;
  unsigned ssd_channels = 16;
  std::uint32_t extract_queue_cap = 6;
  std::uint32_t train_queue_cap = 4;
  std::uint32_t serve_workers = 0;
  double serve_slo_us = 0.0;  ///< 0: no serve latency scoring

  double busy_threshold = 0.60;  ///< "this resource is the constraint"
  double idle_threshold = 0.40;  ///< "this resource had headroom"
  /// Page-cache contention gates: the window must show at least this many
  /// misses, evictions-per-miss above `contended_thrash` (pages recycling
  /// under the accessor, not a cold first pass) and a fault-stall time of
  /// at least `contended_fault_fraction` of the window (summed across
  /// blocked threads) to call memory contention.
  std::uint64_t min_pagecache_misses = 64;
  double contended_thrash = 0.5;
  double contended_fault_fraction = 0.25;
};

/// One scored resource. `utilization` is the busy fraction in [0, 1];
/// `saturation` is backlog pressure (queueing, blocked producers, waits),
/// also clamped to [0, 1]. `pressure()` ranks.
struct ResourceScore {
  std::string resource;
  double utilization = 0.0;
  double saturation = 0.0;
  std::string evidence;  ///< short human fragment ("97% busy, 42 queued")
  double pressure() const { return std::max(utilization, saturation); }
};

struct AttributionReport {
  enum class Verdict {
    kIdle,             ///< nothing moved in the window
    kBalanced,         ///< activity, but no resource dominates
    kIoCongested,      ///< SSD queue saturated, compute has headroom
    kMemoryContended,  ///< page cache thrashing (buffered I/O, tight host)
    kComputeBound,     ///< trainer saturated, I/O has headroom
  };
  Verdict verdict = Verdict::kIdle;
  std::string binding;              ///< top-ranked resource name
  std::vector<ResourceScore> ranked;  ///< descending pressure
  double window_seconds = 0.0;
  std::string scope;                ///< "epoch 3" / "window"

  static const char* verdict_name(Verdict v);
  /// One line: "I/O-congested: ssd 97% busy, trainer 41% busy, ...".
  std::string summary() const;
  /// Full report as a JSON object (verdict, binding, ranked resources).
  std::string to_json() const;
};

class BottleneckAttributor {
 public:
  explicit BottleneckAttributor(AttributionConfig config = {});

  void set_config(const AttributionConfig& config);
  AttributionConfig config() const;

  /// Pure derivation over a [begin, end] snapshot pair spanning
  /// `dt_seconds`. Thread-safe; does not touch the stored report.
  AttributionReport attribute(const MetricsRegistry::Snapshot& begin,
                              const MetricsRegistry::Snapshot& end,
                              double dt_seconds,
                              const std::string& scope) const;

  /// Attribution over the sampler's trailing window (the /attribution
  /// fallback between epoch reports).
  AttributionReport attribute_window(const TimeSeriesSampler& ts,
                                     double window_s) const;

  /// Stores `report` as the latest and logs it as a structured
  /// "attribution" event (verdict, binding, scope, top utilizations).
  void publish(AttributionReport report);
  bool has_report() const;
  AttributionReport latest() const;

 private:
  mutable std::mutex mu_;
  AttributionConfig config_;
  AttributionReport latest_;
  bool has_latest_ = false;
};

}  // namespace gnndrive
