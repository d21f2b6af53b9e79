#include "aio/io_ring.hpp"

#include <cerrno>

#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace gnndrive {

IoRing::IoRing(SsdDevice& ssd, IoRingConfig config, PageCache* cache,
               Telemetry* telemetry)
    : ssd_(ssd), config_(config), cache_(cache), telemetry_(telemetry) {
  if (!config_.direct && cache_ == nullptr) {
    // Configuration error, not an internal invariant: report it to the
    // caller instead of aborting the process.
    throw std::invalid_argument("buffered IoRing requires a page cache");
  }
  staged_.reserve(config_.queue_depth);
  MetricsRegistry& reg = registry_or_own(telemetry, owned_metrics_);
  m_submitted_ = &reg.counter("io.submitted");
  m_io_errors_ = &reg.counter("fault.io_errors");
  m_io_timeouts_ = &reg.counter("fault.io_timeouts");
  m_latency_ = &reg.histogram("io.request_us");
  m_inflight_ = &reg.gauge("io.inflight");
}

IoRing::~IoRing() {
  // Device completions capture `this`; wait for them before tearing down.
  std::unique_lock lock(mu_);
  all_done_.wait(lock, [&] { return in_flight_ == 0; });
}

bool IoRing::prep_read(std::uint64_t offset, std::uint32_t len, void* buf,
                       std::uint64_t user_data) {
  if (staged_.size() >= config_.queue_depth) return false;
  staged_.push_back(Sqe{SsdDevice::Op::kRead, offset, len, buf, user_data});
  return true;
}

bool IoRing::prep_write(std::uint64_t offset, std::uint32_t len,
                        const void* buf, std::uint64_t user_data) {
  if (staged_.size() >= config_.queue_depth) return false;
  staged_.push_back(Sqe{SsdDevice::Op::kWrite, offset, len,
                        const_cast<void*>(buf), user_data});
  return true;
}

void IoRing::complete(std::uint64_t ring_id, std::int32_t res) {
  // One lock acquisition. The instruments are touched inside it too: once
  // in_flight_ reaches zero the destructor may run (and free an owned
  // registry) as soon as this thread lets go of the lock, and the notifies
  // stay under it so a woken waiter cannot destroy the condvars mid-notify.
  std::lock_guard lock(mu_);
  auto it = inflight_.find(ring_id);
  if (it == inflight_.end()) return;  // cancelled by the watchdog
  cq_.push_back(Cqe{it->second.user_data, res});
  m_latency_->add_us(std::chrono::duration<double, std::micro>(
                         Clock::now() - it->second.submitted_at)
                         .count());
  inflight_.erase(it);
  m_inflight_->sub(1);
  if (res < 0) m_io_errors_->add();
  cq_ready_.notify_one();
  if (--in_flight_ == 0) all_done_.notify_all();
}

std::uint64_t IoRing::submit_one(const Sqe& sqe, std::uint64_t ring_id) {
  if (config_.direct &&
      (sqe.offset % kSectorSize != 0 || sqe.len % kSectorSize != 0)) {
    // O_DIRECT alignment violation: fail the request like the kernel would,
    // without touching the device.
    complete(ring_id, -EINVAL);
    return 0;
  }
  if (sqe.len == 0 || (config_.max_transfer_bytes != 0 &&
                       sqe.len > config_.max_transfer_bytes)) {
    // Degenerate or oversized request (a coalescing-planner bug would show
    // up here): fail it before it can overrun the caller's buffer.
    complete(ring_id, -EINVAL);
    return 0;
  }
  if (!config_.direct && sqe.op == SsdDevice::Op::kRead &&
      cache_->try_read_resident(sqe.offset, sqe.len, sqe.buf)) {
    // Buffered read fully served by the page cache: completes immediately.
    complete(ring_id, static_cast<std::int32_t>(sqe.len));
    return 0;
  }
  const bool buffered = !config_.direct;
  const auto offset = sqe.offset;
  const auto len = sqe.len;
  return ssd_.submit(
      sqe.op, sqe.offset, sqe.len, sqe.buf,
      [this, buffered, offset, len, ring_id](std::int32_t res) {
        if (buffered && res >= 0) cache_->note_resident(offset, len);
        complete(ring_id, res);
      },
      config_.io_class);
}

unsigned IoRing::submit() {
  const auto n = static_cast<unsigned>(staged_.size());
  if (n == 0) return 0;
  // Two lock acquisitions per call, whatever its size: one registers every
  // staged request, one records the device tokens after the device calls.
  // A request without its token yet (0) sits out cancel_expired.
  std::uint64_t first_id;
  {
    std::lock_guard lock(mu_);
    first_id = next_ring_id_;
    next_ring_id_ += n;
    const TimePoint now = Clock::now();
    for (unsigned k = 0; k < n; ++k) {
      inflight_[first_id + k] = InFlight{staged_[k].user_data, 0, now};
    }
    in_flight_ += n;
    m_submitted_->add(n);
    m_inflight_->add(n);
  }
  tokens_.resize(n);
  for (unsigned k = 0; k < n; ++k) {
    tokens_[k] = submit_one(staged_[k], first_id + k);
  }
  staged_.clear();
  {
    // A completion may already have erased its entry; only a still-live
    // entry learns its device token (needed for cancellation).
    std::lock_guard lock(mu_);
    for (unsigned k = 0; k < n; ++k) {
      if (tokens_[k] == 0) continue;
      auto it = inflight_.find(first_id + k);
      if (it != inflight_.end()) it->second.device_token = tokens_[k];
    }
  }
  return n;
}

unsigned IoRing::cancel_expired(Duration timeout) {
  const TimePoint cutoff = Clock::now() - timeout;
  // Collect candidates first: try_cancel takes the device lock, and holding
  // mu_ across it is safe (the device thread never holds its lock while
  // calling complete()) but kept short anyway.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> candidates;
  {
    std::lock_guard lock(mu_);
    for (const auto& [ring_id, entry] : inflight_) {
      if (entry.device_token != 0 && entry.submitted_at <= cutoff) {
        candidates.emplace_back(ring_id, entry.device_token);
      }
    }
  }
  unsigned cancelled = 0;
  for (const auto& [ring_id, token] : candidates) {
    if (!ssd_.try_cancel(token)) continue;  // completing; CQE will arrive
    TimePoint submitted_at;
    {
      std::lock_guard lock(mu_);
      auto it = inflight_.find(ring_id);
      if (it == inflight_.end()) continue;  // raced with completion
      submitted_at = it->second.submitted_at;
      cq_.push_back(Cqe{it->second.user_data, -ETIMEDOUT});
      inflight_.erase(it);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
    m_latency_->add_us(
        std::chrono::duration<double, std::micro>(Clock::now() - submitted_at)
            .count());
    m_inflight_->sub(1);
    ++cancelled;
    m_io_timeouts_->add();
    m_io_errors_->add();
    cq_ready_.notify_one();
  }
  return cancelled;
}

std::optional<Cqe> IoRing::peek_cqe() {
  std::lock_guard lock(mu_);
  if (cq_.empty()) return std::nullopt;
  Cqe cqe = cq_.front();
  cq_.pop_front();
  return cqe;
}

Cqe IoRing::wait_cqe() {
  ScopedTrace trace(telemetry_, TraceCat::kIoWait);
  std::unique_lock lock(mu_);
  cq_ready_.wait(lock, [&] { return !cq_.empty(); });
  Cqe cqe = cq_.front();
  cq_.pop_front();
  return cqe;
}

std::optional<Cqe> IoRing::wait_cqe_for(Duration timeout) {
  ScopedTrace trace(telemetry_, TraceCat::kIoWait);
  std::unique_lock lock(mu_);
  if (!cq_ready_.wait_for(lock, timeout, [&] { return !cq_.empty(); })) {
    return std::nullopt;
  }
  Cqe cqe = cq_.front();
  cq_.pop_front();
  return cqe;
}

unsigned IoRing::in_flight() const {
  std::lock_guard lock(mu_);
  return in_flight_ + static_cast<unsigned>(cq_.size());
}

}  // namespace gnndrive
