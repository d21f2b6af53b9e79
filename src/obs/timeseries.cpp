#include "obs/timeseries.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace gnndrive {

TimeSeriesSampler::TimeSeriesSampler(MetricsRegistry* registry,
                                     SpanTracer* tracer,
                                     TimeSeriesConfig config)
    : config_(config), registry_(registry), tracer_(tracer),
      t0_(Clock::now()) {
  GD_CHECK(registry_ != nullptr);
  GD_CHECK(config_.capacity >= 2);
  ring_.reserve(config_.capacity);
}

TimeSeriesSampler::~TimeSeriesSampler() {
  // Backstop for a leaked lease (an exception mid-epoch, say): stop the
  // thread regardless of the refcount so destruction never hangs.
  {
    std::lock_guard lk(life_mu_);
    refs_ = 0;
    thread_running_ = false;
  }
  life_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TimeSeriesSampler::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

bool TimeSeriesSampler::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

// The 0<->1 lease transitions (thread spawn / join) are serialized by
// lease_mu_, which the sampling thread itself never takes — joining under
// it therefore cannot deadlock, and a concurrent retain can never observe
// a half-stopped generation.
void TimeSeriesSampler::retain() {
  std::lock_guard serial(lease_mu_);
  bool first = false;
  {
    std::lock_guard lk(life_mu_);
    first = ++refs_ == 1;
  }
  if (!first) return;
  if (enabled()) {
    if (thread_.joinable()) thread_.join();  // stopped previous generation
    {
      std::lock_guard lk(life_mu_);
      thread_running_ = true;
    }
    thread_ = std::thread([this] { run(); });
  }
  tick();  // bound the window even for sub-interval leases
}

void TimeSeriesSampler::release() {
  std::lock_guard serial(lease_mu_);
  bool last = false;
  {
    std::lock_guard lk(life_mu_);
    GD_CHECK_MSG(refs_ > 0, "TimeSeriesSampler::release without retain");
    last = --refs_ == 0;
    if (last) thread_running_ = false;
  }
  if (last) {
    life_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    tick();  // final sample closes the lease's window
  }
}

bool TimeSeriesSampler::running() const {
  std::lock_guard lk(life_mu_);
  return thread_running_;
}

void TimeSeriesSampler::run() {
  const auto interval = from_us(config_.interval_ms * 1e3);
  std::unique_lock lk(life_mu_);
  while (thread_running_) {
    lk.unlock();
    tick();
    lk.lock();
    life_cv_.wait_for(lk, interval, [&] { return !thread_running_; });
  }
}

void TimeSeriesSampler::tick() {
  if (!enabled()) return;
  TimeSeriesSample sample;
  sample.t_seconds = to_seconds(Clock::now() - t0_);
  sample.snap = registry_->snapshot();

  // Gauge -> Chrome counter track mirroring (satellite of the trace
  // surface): the tracer keeps const char* names, so intern each gauge
  // name once in node-stable storage.
  if (tracer_ != nullptr && tracer_->enabled() && config_.trace_gauges) {
    for (const auto& [name, g] : sample.snap.gauges) {
      const char* stable = nullptr;
      {
        std::lock_guard lk(track_mu_);
        stable = track_names_.insert(name).first->c_str();
      }
      tracer_->sample_counter(stable, static_cast<double>(g.value));
    }
  }

  {
    std::lock_guard lk(ring_mu_);
    sample.seq = seq_++;
    if (ring_.size() < config_.capacity) {
      ring_.push_back(std::move(sample));
    } else {
      ring_[sample.seq % config_.capacity] = std::move(sample);
    }
  }

  std::function<void(const TimeSeriesSampler&)> cb;
  {
    std::lock_guard lk(cb_mu_);
    cb = on_tick_;
  }
  if (cb) cb(*this);
}

std::uint64_t TimeSeriesSampler::sample_count() const {
  std::lock_guard lk(ring_mu_);
  return seq_;
}

std::vector<TimeSeriesSample> TimeSeriesSampler::samples() const {
  std::lock_guard lk(ring_mu_);
  std::vector<TimeSeriesSample> out;
  out.reserve(ring_.size());
  const std::uint64_t oldest = seq_ > ring_.size() ? seq_ - ring_.size() : 0;
  for (std::uint64_t s = oldest; s < seq_; ++s) {
    out.push_back(ring_[s % config_.capacity]);
  }
  return out;
}

bool TimeSeriesSampler::latest(TimeSeriesSample* out) const {
  std::lock_guard lk(ring_mu_);
  if (seq_ == 0) return false;
  *out = ring_[(seq_ - 1) % config_.capacity];
  return true;
}

bool TimeSeriesSampler::window_bounds_locked(
    double window_s, const TimeSeriesSample** begin,
    const TimeSeriesSample** end) const {
  if (seq_ < 2) return false;
  const std::uint64_t oldest = seq_ > ring_.size() ? seq_ - ring_.size() : 0;
  const TimeSeriesSample& newest = ring_[(seq_ - 1) % config_.capacity];
  // Oldest retained sample still inside the window; fall back to the
  // sample immediately preceding the newest when the window is narrower
  // than one tick. Walk backwards from the newest so the cost is
  // O(samples in window), not O(ring occupancy) — the SLO watcher runs
  // these queries on every tick.
  const TimeSeriesSample* first = nullptr;
  for (std::uint64_t s = seq_ - 1; s-- > oldest;) {
    const TimeSeriesSample& cand = ring_[s % config_.capacity];
    if (newest.t_seconds - cand.t_seconds > window_s) break;
    first = &cand;
  }
  if (first == nullptr) first = &ring_[(seq_ - 2) % config_.capacity];
  *begin = first;
  *end = &newest;
  return true;
}

TimeSeriesSampler::CounterWindow TimeSeriesSampler::counter_window(
    const std::string& name, double window_s) const {
  std::lock_guard lk(ring_mu_);
  CounterWindow w;
  const TimeSeriesSample* b = nullptr;
  const TimeSeriesSample* e = nullptr;
  if (!window_bounds_locked(window_s, &b, &e)) return w;
  const std::uint64_t* first =
      MetricsRegistry::Snapshot::find(b->snap.counters, name);
  const std::uint64_t* last =
      MetricsRegistry::Snapshot::find(e->snap.counters, name);
  if (last == nullptr) return w;
  w.valid = true;
  w.dt_seconds = e->t_seconds - b->t_seconds;
  w.first = first != nullptr ? *first : 0;
  w.last = *last;
  w.delta = w.last > w.first ? w.last - w.first : 0;
  w.rate_per_s =
      w.dt_seconds > 0 ? static_cast<double>(w.delta) / w.dt_seconds : 0.0;
  return w;
}

TimeSeriesSampler::GaugeWindow TimeSeriesSampler::gauge_window(
    const std::string& name, double window_s) const {
  std::lock_guard lk(ring_mu_);
  GaugeWindow w;
  const TimeSeriesSample* b = nullptr;
  const TimeSeriesSample* e = nullptr;
  if (!window_bounds_locked(window_s, &b, &e)) return w;
  w.dt_seconds = e->t_seconds - b->t_seconds;
  // Mean/max over every retained sample in [b, e].
  double sum = 0.0;
  std::uint64_t n = 0;
  for (std::uint64_t s = b->seq; s < seq_; ++s) {
    const TimeSeriesSample& cand = ring_[s % config_.capacity];
    const auto* g = MetricsRegistry::Snapshot::find(cand.snap.gauges, name);
    if (g == nullptr) continue;
    sum += static_cast<double>(g->value);
    w.max = std::max(w.max, g->value);
    w.last = g->value;
    ++n;
  }
  if (n == 0) return w;
  w.valid = true;
  w.mean = sum / static_cast<double>(n);
  return w;
}

LatencyHistogram TimeSeriesSampler::histogram_window(const std::string& name,
                                                     double window_s) const {
  std::lock_guard lk(ring_mu_);
  const TimeSeriesSample* b = nullptr;
  const TimeSeriesSample* e = nullptr;
  if (!window_bounds_locked(window_s, &b, &e)) return LatencyHistogram{};
  return e->snap.histogram(name).diff_since(b->snap.histogram(name));
}

void TimeSeriesSampler::set_on_tick(
    std::function<void(const TimeSeriesSampler&)> cb) {
  std::lock_guard lk(cb_mu_);
  on_tick_ = std::move(cb);
}

}  // namespace gnndrive
