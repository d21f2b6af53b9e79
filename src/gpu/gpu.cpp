#include "gpu/gpu.hpp"

#include <cstring>
#include <vector>

namespace gnndrive {

GpuDevice::GpuDevice(GpuConfig config, Telemetry* telemetry)
    : config_(config), telemetry_(telemetry), engine_free_(Clock::now()) {
  dma_thread_ = std::thread([this] { dma_loop(); });
}

GpuDevice::~GpuDevice() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  dma_thread_.join();
}

void GpuDevice::alloc(std::uint64_t bytes, const char* what) {
  std::lock_guard lock(mu_);
  if (allocated_ + bytes > config_.device_memory_bytes) {
    throw SimOutOfMemory(std::string("device OOM allocating ") +
                         std::to_string(bytes) + " bytes for " + what +
                         " (allocated " + std::to_string(allocated_) +
                         " of " + std::to_string(config_.device_memory_bytes) +
                         ")");
  }
  allocated_ += bytes;
}

void GpuDevice::free(std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  GD_CHECK_MSG(bytes <= allocated_, "device free exceeds allocation");
  allocated_ -= bytes;
}

std::uint64_t GpuDevice::allocated() const {
  std::lock_guard lock(mu_);
  return allocated_;
}

void GpuDevice::memcpy_h2d_async(void* dst, const void* src,
                                 std::uint64_t bytes,
                                 std::function<void()> on_complete) {
  const double transfer_us =
      config_.copy_overhead_us +
      static_cast<double>(bytes) / config_.pcie_bandwidth_mb_s;
  const Duration service = from_us(transfer_us * config_.time_scale);
  bool was_idle;
  {
    std::lock_guard lock(mu_);
    const TimePoint start = std::max(Clock::now(), engine_free_);
    const TimePoint done = start + service;
    engine_free_ = done;
    was_idle = copies_.empty();
    copies_.push_back(Copy{done, dst, src, bytes, std::move(on_complete)});
    ++in_flight_;
  }
  // The engine serves copies in submission order, so a copy joining a
  // non-empty queue is due no earlier than the one the DMA thread already
  // waits for: only the first of a burst needs to wake it.
  if (was_idle) cv_.notify_one();
}

void GpuDevice::memcpy_h2d_sync(void* dst, const void* src,
                                std::uint64_t bytes) {
  std::mutex m;
  std::condition_variable done_cv;
  bool done = false;
  memcpy_h2d_async(dst, src, bytes, [&] {
    std::lock_guard lk(m);
    done = true;
    done_cv.notify_one();
  });
  ScopedTrace trace(telemetry_, TraceCat::kIoWait);
  std::unique_lock lk(m);
  done_cv.wait(lk, [&] { return done; });
}

void GpuDevice::sync() {
  std::unique_lock lock(mu_);
  drained_.wait(lock, [&] { return in_flight_ == 0; });
}

void GpuDevice::launch(const std::function<void()>& fn) {
  ScopedTrace trace(telemetry_, TraceCat::kGpuBusy);
  fn();
}

void GpuDevice::dma_loop() {
  std::vector<Copy> due;
  std::unique_lock lock(mu_);
  for (;;) {
    if (copies_.empty()) {
      if (stop_) return;
      cv_.wait(lock, [&] { return stop_ || !copies_.empty(); });
      continue;
    }
    const TimePoint now = Clock::now();
    if (now < copies_.front().done_at) {
      cv_.wait_until(lock, copies_.front().done_at);
      continue;
    }
    // Every copy due by now completes in this pass, in due order, with one
    // lock acquisition to take them and one to count them done.
    while (!copies_.empty() && copies_.front().done_at <= now) {
      due.push_back(std::move(copies_.front()));
      copies_.pop_front();
    }
    lock.unlock();
    for (Copy& copy : due) {
      if (copy.dst != nullptr && copy.bytes > 0) {
        ScopedTrace trace(telemetry_, TraceCat::kGpuBusy);
        std::memcpy(copy.dst, copy.src, copy.bytes);
      }
      if (copy.on_complete) copy.on_complete();
    }
    const std::size_t n = due.size();
    due.clear();
    lock.lock();
    in_flight_ -= n;
    if (in_flight_ == 0) drained_.notify_all();
  }
}

}  // namespace gnndrive
