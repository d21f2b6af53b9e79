#include "storage/ssd.hpp"

#include <cerrno>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

namespace {
/// Far-future completion time for injected stuck requests: practically
/// "never", but safe for condition_variable::wait_until (TimePoint::max()
/// overflows some implementations when a service delta is added).
TimePoint stuck_deadline() {
  return Clock::now() + std::chrono::hours(24 * 365);
}

/// Synchronous operations carry a watchdog of their own: a request that
/// never completes (injected stuck, or a real device going away) is
/// cancelled after this deadline and surfaces as -ETIMEDOUT instead of
/// blocking the caller forever. Far above any modeled service time, spiked
/// or queued, so it never fires on a healthy device.
Duration sync_timeout(Duration service) {
  return std::chrono::duration_cast<Duration>(service * 200) +
         std::chrono::seconds(10);
}
}  // namespace

FileBackend::FileBackend(const std::string& path, std::uint64_t size)
    : size_(size) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  GD_CHECK_MSG(fd_ >= 0, "FileBackend: cannot open backing file");
  GD_CHECK_MSG(::ftruncate(fd_, static_cast<off_t>(size)) == 0,
               "FileBackend: ftruncate failed");
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

std::int32_t FileBackend::read(std::uint64_t offset, std::uint32_t len,
                               void* dst) {
  GD_CHECK(offset + len <= size_);
  auto* p = static_cast<std::uint8_t*>(dst);
  std::uint32_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd_, p + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted, not an error: retry
      GD_LOG_WARN("FileBackend: pread(%llu, %u) failed: errno=%d",
                  static_cast<unsigned long long>(offset + done), len - done,
                  errno);
      return -errno;
    }
    if (n == 0) {
      // Unexpected EOF inside the ftruncated extent: surface as I/O error.
      GD_LOG_WARN("FileBackend: short pread at %llu (EOF)",
                  static_cast<unsigned long long>(offset + done));
      return -EIO;
    }
    done += static_cast<std::uint32_t>(n);
  }
  return 0;
}

std::int32_t FileBackend::write(std::uint64_t offset, std::uint32_t len,
                                const void* src) {
  GD_CHECK(offset + len <= size_);
  const auto* p = static_cast<const std::uint8_t*>(src);
  std::uint32_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd_, p + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      GD_LOG_WARN("FileBackend: pwrite(%llu, %u) failed: errno=%d",
                  static_cast<unsigned long long>(offset + done), len - done,
                  errno);
      return -errno;
    }
    if (n == 0) {
      GD_LOG_WARN("FileBackend: pwrite made no progress at %llu",
                  static_cast<unsigned long long>(offset + done));
      return -EIO;
    }
    done += static_cast<std::uint32_t>(n);
  }
  return 0;
}

FaultInjector::Decision FaultInjector::decide(bool is_read,
                                              std::uint64_t offset,
                                              std::uint32_t len) {
  Decision d;
  for (const auto& range : config_.bad_ranges) {
    if (offset < range.end && offset + len > range.begin && is_read) {
      d.res = -EIO;
      return d;
    }
  }
  // One RNG draw per knob keeps the sequence deterministic regardless of
  // which faults actually fire.
  const double u_eio = rng_.next_double();
  const double u_stuck = rng_.next_double();
  const double u_spike = rng_.next_double();
  if (u_eio < config_.eio_probability) {
    d.res = -EIO;
    return d;
  }
  if (u_stuck < config_.stuck_probability) {
    d.stuck = true;
    return d;
  }
  if (u_spike < config_.spike_probability) {
    d.latency_multiplier = config_.spike_multiplier;
  }
  return d;
}

const char* io_class_name(IoClass io_class) {
  return io_class == IoClass::kLatency ? "latency" : "throughput";
}

ChannelArbiter::ChannelArbiter(unsigned channels, TimePoint origin)
    : channel_free_(channels, origin) {
  GD_CHECK(channels > 0);
}

void ChannelArbiter::enqueue(const Request& request) {
  queues_[static_cast<std::size_t>(request.io_class)].push_back(request);
}

TimePoint ChannelArbiter::next_free() const {
  return *std::min_element(channel_free_.begin(), channel_free_.end());
}

std::optional<ChannelArbiter::Start> ChannelArbiter::dispatch(TimePoint now) {
  if (idle()) return std::nullopt;
  auto channel = std::min_element(channel_free_.begin(), channel_free_.end());
  const TimePoint free_at = *channel;
  if (free_at > now) return std::nullopt;
  auto& latency = queues_[static_cast<std::size_t>(IoClass::kLatency)];
  auto& throughput = queues_[static_cast<std::size_t>(IoClass::kThroughput)];
  // Waiting when the channel frees: only those requests compete for it.
  const bool latency_waits =
      !latency.empty() && latency.front().submit <= free_at;
  const bool throughput_waits =
      !throughput.empty() && throughput.front().submit <= free_at;
  bool pick_latency;
  if (latency_waits && throughput_waits) {
    pick_latency = latency_streak_ < kLatencyBurst;
  } else if (latency_waits || throughput_waits) {
    pick_latency = latency_waits;
  } else {
    // The channel idles until the first arrival, which takes it.
    pick_latency = throughput.empty() ||
                   (!latency.empty() &&
                    latency.front().submit <= throughput.front().submit);
  }
  latency_streak_ = pick_latency && throughput_waits ? latency_streak_ + 1 : 0;
  auto& queue = pick_latency ? latency : throughput;
  const Request r = queue.front();
  queue.pop_front();
  Start s{r.token, r.io_class, r.submit, std::max(r.submit, free_at), {},
          r.service};
  s.done = s.start + r.service;
  *channel = s.done;
  return s;
}

bool ChannelArbiter::cancel(std::uint64_t token) {
  for (auto& queue : queues_) {
    const auto it =
        std::find_if(queue.begin(), queue.end(),
                     [&](const Request& r) { return r.token == token; });
    if (it != queue.end()) {
      queue.erase(it);
      return true;
    }
  }
  return false;
}

SsdDevice::SsdDevice(SsdConfig config, std::shared_ptr<SsdBackend> backend)
    : config_(config), backend_(std::move(backend)),
      arbiter_(config_.channels, Clock::now()) {
  set_telemetry(nullptr);
  device_thread_ = std::thread([this] { device_loop(); });
}

SsdDevice::~SsdDevice() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  device_thread_.join();
}

Duration SsdDevice::service_time(Op op, std::uint32_t len) const {
  const double base_us =
      op == Op::kRead ? config_.read_latency_us : config_.write_latency_us;
  const double per_channel_mb_s =
      config_.bandwidth_mb_s / static_cast<double>(config_.channels);
  const double transfer_us =
      static_cast<double>(len) / per_channel_mb_s;  // bytes / (MB/s) == us
  return from_us((base_us + transfer_us) * config_.time_scale);
}

void SsdDevice::set_fault_config(const SsdFaultConfig& config) {
  // Validate loudly before arming: a NaN or out-of-range probability would
  // silently disable (or always fire) the corresponding fault, turning a
  // test-configuration typo into a meaningless soak run.
  if (config.enabled) {
    const auto check_probability = [](const char* name, double p) {
      if (!(p >= 0.0 && p <= 1.0)) {  // !(..) also rejects NaN
        throw std::invalid_argument(
            std::string("SsdFaultConfig::") + name +
            " must be a probability in [0, 1], got " + std::to_string(p));
      }
    };
    check_probability("eio_probability", config.eio_probability);
    check_probability("spike_probability", config.spike_probability);
    check_probability("stuck_probability", config.stuck_probability);
    if (!(config.spike_multiplier >= 1.0) ||
        !(config.spike_multiplier <= 1e6)) {
      throw std::invalid_argument(
          "SsdFaultConfig::spike_multiplier must be in [1, 1e6], got " +
          std::to_string(config.spike_multiplier));
    }
    for (const auto& range : config.bad_ranges) {
      if (range.begin >= range.end) {
        throw std::invalid_argument(
            "SsdFaultConfig::bad_ranges entry [" +
            std::to_string(range.begin) + ", " + std::to_string(range.end) +
            ") is empty or inverted");
      }
    }
  }
  std::lock_guard lock(mu_);
  injector_ = config.enabled ? std::make_unique<FaultInjector>(config)
                             : nullptr;
}

SsdFaultConfig SsdDevice::fault_config() const {
  std::lock_guard lock(mu_);
  return injector_ ? injector_->config() : SsdFaultConfig{};
}

std::uint64_t SsdDevice::submit(Op op, std::uint64_t offset, std::uint32_t len,
                                void* buf, Completion on_complete,
                                IoClass io_class) {
  GD_CHECK(offset + len <= backend_->size());
  Duration service = service_time(op, len);
  std::uint64_t token;
  {
    std::lock_guard lock(mu_);
    // Stamped under the lock, so every request stamped at or before a
    // channel's free time is queued before that channel's dispatch runs.
    const TimePoint now = Clock::now();
    token = next_token_++;
    Pending req{op, offset, len, buf, std::move(on_complete)};
    if (injector_) {
      const auto d = injector_->decide(op == Op::kRead, offset, len);
      req.injected_res = d.res;
      req.stuck = d.stuck;
      if (d.res < 0) {
        ++stats_.injected_eio;
      } else if (d.stuck) {
        ++stats_.injected_stuck;
      } else if (d.latency_multiplier > 1.0) {
        ++stats_.injected_spikes;
        service = std::chrono::duration_cast<Duration>(
            service * d.latency_multiplier);
      }
    }
    if (op == Op::kRead) {
      ++stats_.reads;
      ++stats_.by_class[static_cast<std::size_t>(io_class)].reads;
      stats_.bytes_read += len;
    } else {
      ++stats_.writes;
      stats_.bytes_written += len;
    }
    if (req.stuck) {
      // Never scheduled for completion; occupies no channel (the modeled
      // firmware lost it). Cancellation is the only way out.
      due_.push({stuck_deadline(), token});
    } else {
      arbiter_.enqueue({token, now, service, io_class});
    }
    live_.emplace(token, std::move(req));
    ++in_flight_;
    dispatch_locked(now);
    mirror_stats_locked();
  }
  cv_.notify_one();
  return token;
}

TimePoint SsdDevice::next_event_locked() const {
  TimePoint next = due_.empty() ? TimePoint::max() : due_.top().at;
  if (!arbiter_.idle()) next = std::min(next, arbiter_.next_free());
  return next;
}

void SsdDevice::dispatch_locked(TimePoint now) {
  while (const auto s = arbiter_.dispatch(now)) {
    stats_.busy_seconds += to_seconds(s->service);
    stats_.by_class[static_cast<std::size_t>(s->io_class)]
        .queue_wait_seconds += to_seconds(s->start - s->submit);
    due_.push({s->done, s->token});
  }
}

bool SsdDevice::try_cancel(std::uint64_t token) {
  std::lock_guard lock(mu_);
  const auto it = live_.find(token);
  if (it == live_.end()) return false;  // completed, completing or unknown
  // A queued request leaves its class queue without taking a channel; a
  // started one keeps its channel until its modeled completion, and its
  // Due entry is dropped when it surfaces.
  arbiter_.cancel(token);
  live_.erase(it);
  ++stats_.cancelled;
  --in_flight_;
  mirror_stats_locked();
  if (in_flight_ == 0) drained_.notify_all();
  cv_.notify_one();
  return true;
}

std::int32_t SsdDevice::read_sync(std::uint64_t offset, std::uint32_t len,
                                  void* dst) {
  std::mutex m;
  std::condition_variable done_cv;
  bool done = false;
  std::int32_t result = 0;
  const std::uint64_t token = submit(
      Op::kRead, offset, len, dst,
      [&](std::int32_t res) {
        std::lock_guard lk(m);
        done = true;
        result = res;
        done_cv.notify_one();
      },
      IoClass::kLatency);
  const Duration timeout = sync_timeout(service_time(Op::kRead, len));
  std::unique_lock lk(m);
  if (!done_cv.wait_for(lk, timeout, [&] { return done; })) {
    lk.unlock();
    // Cancelled: the completion will never run and dst is never written.
    if (try_cancel(token)) return -ETIMEDOUT;
    // The request beat the cancel and is completing right now.
    lk.lock();
    done_cv.wait(lk, [&] { return done; });
  }
  return result;
}

std::int32_t SsdDevice::write_sync(std::uint64_t offset, std::uint32_t len,
                                   const void* src) {
  std::mutex m;
  std::condition_variable done_cv;
  bool done = false;
  std::int32_t result = 0;
  const std::uint64_t token =
      submit(Op::kWrite, offset, len, const_cast<void*>(src),
             [&](std::int32_t res) {
               std::lock_guard lk(m);
               done = true;
               result = res;
               done_cv.notify_one();
             },
             IoClass::kLatency);
  const Duration timeout = sync_timeout(service_time(Op::kWrite, len));
  std::unique_lock lk(m);
  if (!done_cv.wait_for(lk, timeout, [&] { return done; })) {
    lk.unlock();
    if (try_cancel(token)) return -ETIMEDOUT;
    lk.lock();
    done_cv.wait(lk, [&] { return done; });
  }
  return result;
}

void SsdDevice::drain() {
  std::unique_lock lock(mu_);
  drained_.wait(lock, [&] { return in_flight_ == 0; });
}

SsdStats SsdDevice::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void SsdDevice::set_telemetry(Telemetry* telemetry) {
  std::lock_guard lock(mu_);
  MetricsRegistry& reg =
      telemetry != nullptr ? *telemetry->metrics() : own_metrics_;
  m_.reads = &reg.counter("ssd.reads");
  m_.writes = &reg.counter("ssd.writes");
  m_.bytes_read = &reg.counter("ssd.bytes_read");
  m_.bytes_written = &reg.counter("ssd.bytes_written");
  m_.busy_us = &reg.counter("ssd.busy_us");
  m_.injected_eio = &reg.counter("ssd.injected_eio");
  m_.injected_spikes = &reg.counter("ssd.injected_spikes");
  m_.injected_stuck = &reg.counter("ssd.injected_stuck");
  m_.cancelled = &reg.counter("ssd.cancelled");
  for (const IoClass c : {IoClass::kThroughput, IoClass::kLatency}) {
    const std::string prefix = std::string("ssd.") + io_class_name(c);
    const auto i = static_cast<std::size_t>(c);
    m_.class_reads[i] = &reg.counter(prefix + ".reads");
    m_.class_queue_wait[i] = &reg.counter(prefix + ".queue_wait_us");
  }
  m_.pending = &reg.gauge("ssd.pending");
  mirror_stats_locked();
}

void SsdDevice::mirror_stats_locked() {
  m_.reads->store(stats_.reads);
  m_.writes->store(stats_.writes);
  m_.bytes_read->store(stats_.bytes_read);
  m_.bytes_written->store(stats_.bytes_written);
  m_.busy_us->store(static_cast<std::uint64_t>(stats_.busy_seconds * 1e6));
  m_.injected_eio->store(stats_.injected_eio);
  m_.injected_spikes->store(stats_.injected_spikes);
  m_.injected_stuck->store(stats_.injected_stuck);
  m_.cancelled->store(stats_.cancelled);
  for (std::size_t i = 0; i < kIoClasses; ++i) {
    m_.class_reads[i]->store(stats_.by_class[i].reads);
    m_.class_queue_wait[i]->store(static_cast<std::uint64_t>(
        stats_.by_class[i].queue_wait_seconds * 1e6));
  }
  m_.pending->set(static_cast<std::int64_t>(in_flight_));
}

void SsdDevice::device_loop() {
  std::vector<Pending> done;  // completions taken in one pass
  std::unique_lock lock(mu_);
  for (;;) {
    const TimePoint now = Clock::now();
    // Channels that freed since the last pass take their next requests
    // first; the stats mirror precedes the completions it orders.
    if (!arbiter_.idle() && arbiter_.next_free() <= now) {
      dispatch_locked(now);
      mirror_stats_locked();
    }
    // Take every request due by now; a Due entry whose request is gone was
    // cancelled.
    while (!due_.empty() && due_.top().at <= now) {
      const auto it = live_.find(due_.top().token);
      due_.pop();
      if (it == live_.end()) continue;
      done.push_back(std::move(it->second));
      live_.erase(it);
    }
    if (done.empty()) {
      // Discard cancelled requests eagerly so they neither delay the wake
      // time nor keep the loop alive at shutdown.
      while (!due_.empty() && live_.count(due_.top().token) == 0) due_.pop();
      if (due_.empty() && arbiter_.idle()) {
        if (stop_) return;
        cv_.wait(lock);
      } else if (stop_ && !due_.empty() && live_.at(due_.top().token).stuck) {
        // Shutdown with an uncancelled stuck request: abandon it (its
        // completion never runs) instead of blocking destruction for a
        // year.
        live_.erase(due_.top().token);
        due_.pop();
        --in_flight_;
        m_.pending->set(static_cast<std::int64_t>(in_flight_));
        if (in_flight_ == 0) drained_.notify_all();
      } else {
        cv_.wait_until(lock, next_event_locked());
      }
      continue;
    }
    // Completions, in due order: data movement and callbacks without holding
    // the lock. The depth gauge is published first, so the caller a
    // completion wakes is ordered after this thread's last touch of the
    // registry (which may be destroyed before the device).
    m_.pending->set(static_cast<std::int64_t>(in_flight_ - done.size()));
    lock.unlock();
    for (Pending& req : done) {
      std::int32_t res = req.injected_res;
      if (res == 0) {
        res = req.op == Op::kRead
                  ? backend_->read(req.offset, req.len, req.buf)
                  : backend_->write(req.offset, req.len, req.buf);
      }
      if (req.on_complete) {
        req.on_complete(res < 0 ? res : static_cast<std::int32_t>(req.len));
      }
    }
    const std::size_t n = done.size();
    done.clear();
    lock.lock();
    in_flight_ -= n;
    if (in_flight_ == 0) drained_.notify_all();
  }
}

}  // namespace gnndrive
