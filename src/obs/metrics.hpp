// Unified metrics registry for the observability layer.
//
// Every subsystem that used to keep ad-hoc counters (feature-buffer
// hits/misses, SsdStats, fault counters) publishes them here under stable
// dotted names so benches, the end-of-epoch report and the trace exporter
// see one coherent set. Three instrument kinds:
//
//   Counter   — monotonic event count (relaxed atomic add).
//   Gauge     — instantaneous level (queue depth, in-flight requests) with a
//               high-watermark.
//   Histogram — thread-safe log2-bucket latency histogram; snapshots into
//               the query-side LatencyHistogram for p50/p95/p99.
//
// Hot-path cost: one relaxed atomic RMW per update, no locks. Registration
// (name lookup) takes a mutex and is meant for construction time — callers
// resolve instruments once and keep the pointer. Instruments are owned by
// the registry and never move, so resolved pointers stay valid for the
// registry's lifetime. Metric names are listed in docs/observability.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/stats.hpp"

namespace gnndrive {

class Counter : NonCopyable {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Overwrites the value — for mirroring an externally-maintained monotonic
  /// counter (e.g. SsdStats) into the registry at snapshot points.
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge : NonCopyable {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  void add(std::int64_t d) {
    raise_max(v_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  void sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void raise_max(std::int64_t v) {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Thread-safe variant of LatencyHistogram: atomic buckets, no lock.
/// Sum/max are tracked in integer nanoseconds so concurrent adds stay exact.
class ConcurrentHistogram : NonCopyable {
 public:
  void add_us(double us) {
    count_.fetch_add(1, std::memory_order_relaxed);
    const auto ns = static_cast<std::uint64_t>(std::max(us, 0.0) * 1e3);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (ns > cur &&
           !max_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
    buckets_[LatencyHistogram::bucket_of(us)].fetch_add(
        1, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Drops every sample so the next window starts fresh (per-epoch
  /// histogram hygiene). Adds racing with a reset may land on either side
  /// of the window boundary — both attributions are valid for windowed
  /// reporting. Prefer snapshot() + LatencyHistogram::diff_since when the
  /// cumulative series must keep growing (Prometheus exposition).
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

  /// Consistent-enough copy for reporting (buckets are read individually;
  /// a racing add may be off by one sample, which percentiles tolerate).
  LatencyHistogram snapshot() const {
    std::uint64_t raw[LatencyHistogram::kBuckets];
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      raw[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return LatencyHistogram::from_raw(
        raw, static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e3,
        static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e3);
  }

 private:
  std::atomic<std::uint64_t> buckets_[LatencyHistogram::kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

class MetricsRegistry : NonCopyable {
 public:
  /// Find-or-create by name. Returned references stay valid for the
  /// registry's lifetime; resolve once, then update lock-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  ConcurrentHistogram& histogram(const std::string& name);

  struct GaugeValue {
    std::int64_t value = 0;
    std::int64_t max = 0;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, GaugeValue>> gauges;
    std::vector<std::pair<std::string, LatencyHistogram>> histograms;

    /// The named entry of one of the vectors above (binary search: they
    /// are name-sorted), or null when the snapshot lacks it.
    template <typename Vec>
    static const typename Vec::value_type::second_type* find(
        const Vec& v, const std::string& name) {
      const auto it = std::lower_bound(
          v.begin(), v.end(), name,
          [](const auto& entry, const std::string& key) {
            return entry.first < key;
          });
      return it != v.end() && it->first == name ? &it->second : nullptr;
    }
    /// Lookups that read an absent instrument as zero / empty, so a window
    /// is `end.counter(n) - begin.counter(n)` or
    /// `end.histogram(n).diff_since(begin.histogram(n))`.
    std::uint64_t counter(const std::string& name) const {
      const auto* v = find(counters, name);
      return v != nullptr ? *v : 0;
    }
    GaugeValue gauge(const std::string& name) const {
      const auto* v = find(gauges, name);
      return v != nullptr ? *v : GaugeValue{};
    }
    LatencyHistogram histogram(const std::string& name) const {
      const auto* v = find(histograms, name);
      return v != nullptr ? *v : LatencyHistogram{};
    }
  };
  /// Name-sorted copy of every instrument's current value.
  Snapshot snapshot() const;

  /// Human-readable report: counters, gauges (value/max), histograms with
  /// count/mean/p50/p95/p99. One line per instrument, sorted by name.
  std::string format_report() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ConcurrentHistogram>> histograms_;
};

}  // namespace gnndrive
