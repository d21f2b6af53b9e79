// Simulated GPU device.
//
// No CUDA device exists in this environment, so the GPU is modeled with the
// three properties the paper's design actually depends on:
//
//  1. *Device memory* is a budgeted arena (24 GB on the paper's RTX 3090,
//     scaled here). GNNDrive's feature buffer lives in it; over-commit
//     raises SimOutOfMemory, reproducing the OOM failures in Figs. 9/10 and
//     the training-queue-depth restriction of Sect. 4.2. Backing storage is
//     ordinary host RAM — contents are real so training math is real.
//  2. *Asynchronous H2D copies* run on a DMA engine modeled like the SSD:
//     completion = max(now, engine_free) + overhead + bytes/bandwidth, on a
//     real wall-clock schedule, so copy/compute/IO overlap is physically
//     measurable (cudaMemcpyAsync equivalent, step 5 of Fig. 4).
//  3. *Compute* executes for real on the host core and is attributed to
//     TraceCat::kGpuBusy; the CPU-training variant runs the same math with a
//     modeled slowdown factor (a GPU executes the dense kernels of these
//     models many times faster than one CPU core; the factor is per-model,
//     calibrated to the gaps the paper reports).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "util/common.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

struct GpuConfig {
  std::uint64_t device_memory_bytes = 48ull << 20;  ///< "24 GB" scaled.
  double pcie_bandwidth_mb_s = 12000.0;
  /// Per-async-copy overhead. Pipelined cudaMemcpyAsync on a dedicated copy
  /// engine amortizes to a couple of microseconds per small transfer.
  double copy_overhead_us = 1.5;
  /// Modeled kernel throughput (FLOP/s). 0 = ideal device: kernels cost
  /// exactly their real single-core execution time. A positive value sets
  /// a floor of flops/rate per kernel — used to model slower parts (the
  /// multi-GPU testbed's K80s, Fig. 13), whose modeled time, unlike real
  /// host math, parallelizes across replicas.
  double gpu_flops_per_s = 0.0;
  double time_scale = 1.0;
};

class GpuDevice : NonCopyable {
 public:
  explicit GpuDevice(GpuConfig config, Telemetry* telemetry = nullptr);
  ~GpuDevice();

  // -- Device memory accounting --------------------------------------------
  void alloc(std::uint64_t bytes, const char* what);
  void free(std::uint64_t bytes);
  std::uint64_t allocated() const;
  std::uint64_t capacity() const { return config_.device_memory_bytes; }

  // -- Copy engine ----------------------------------------------------------
  /// Asynchronous host-to-device copy: the memcpy and `on_complete` run on
  /// the DMA thread once the modeled PCIe transfer time elapses. The DMA
  /// thread takes every copy due in one pass, in due order, and only a copy
  /// queued onto an idle engine wakes it.
  void memcpy_h2d_async(void* dst, const void* src, std::uint64_t bytes,
                        std::function<void()> on_complete);
  /// Synchronous copy (PyG+/Ginex-style transfer on the critical path).
  void memcpy_h2d_sync(void* dst, const void* src, std::uint64_t bytes);
  /// Charges the modeled PCIe time of a synchronous transfer without moving
  /// data (the tensor is already host-resident in the simulation).
  void charge_h2d_sync(std::uint64_t bytes) {
    memcpy_h2d_sync(nullptr, nullptr, bytes);
  }
  /// Blocks until all submitted copies completed (cudaStreamSynchronize).
  void sync();

  // -- Compute --------------------------------------------------------------
  /// Runs `fn` as a GPU kernel: real math, attributed to kGpuBusy.
  void launch(const std::function<void()>& fn);

  const GpuConfig& config() const { return config_; }
  void set_telemetry(Telemetry* t) { telemetry_ = t; }

 private:
  struct Copy {
    TimePoint done_at;
    void* dst;
    const void* src;
    std::uint64_t bytes;
    std::function<void()> on_complete;
  };

  void dma_loop();

  const GpuConfig config_;
  Telemetry* telemetry_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_;
  /// In submission order, which is due order: each copy starts when the
  /// engine frees, so done_at never decreases along the queue.
  std::deque<Copy> copies_;
  TimePoint engine_free_;
  std::size_t in_flight_ = 0;
  std::uint64_t allocated_ = 0;
  bool stop_ = false;
  std::thread dma_thread_;
};

/// RAII device allocation.
class DeviceAlloc : NonCopyable {
 public:
  DeviceAlloc() = default;
  DeviceAlloc(GpuDevice& gpu, std::uint64_t bytes, const char* what)
      : gpu_(&gpu), bytes_(bytes) {
    gpu.alloc(bytes, what);
  }
  DeviceAlloc(DeviceAlloc&& o) noexcept : gpu_(o.gpu_), bytes_(o.bytes_) {
    o.gpu_ = nullptr;
    o.bytes_ = 0;
  }
  DeviceAlloc& operator=(DeviceAlloc&& o) noexcept {
    release();
    gpu_ = o.gpu_;
    bytes_ = o.bytes_;
    o.gpu_ = nullptr;
    o.bytes_ = 0;
    return *this;
  }
  ~DeviceAlloc() { release(); }
  std::uint64_t bytes() const { return bytes_; }

 private:
  void release() {
    if (gpu_ != nullptr) gpu_->free(bytes_);
    gpu_ = nullptr;
    bytes_ = 0;
  }
  GpuDevice* gpu_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace gnndrive
