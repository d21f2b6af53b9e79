// Multi-GPU data parallelism (Sect. 4.3, Fig. 7).
//
// The training set splits into segments, one replica per (simulated) GPU.
// Each replica owns its full pipeline — samplers, extractors, trainer,
// releaser, queues and feature buffer — exactly as the paper gives each
// subprocess its own, while topology (via the shared page cache) and host
// memory are shared. After every local backward pass the replicas
// synchronize gradients: a barrier whose completion step averages gradients
// across replicas and charges the modeled all-reduce time
//     2 (N-1)/N * grad_bytes / interconnect_bw + N * per_step_overhead,
// which is what caps scaling beyond ~6 GPUs in Fig. 13.
//
// The paper uses subprocesses because of Python's GIL; C++ threads give the
// same structure without the IPC layer (the all-reduce model absorbs the
// synchronization cost either way — see DESIGN.md).
//
// Given a Telemetry in the RunContext, all replicas count into it, so their
// registry instruments are shared: a replica's feature_buffer().stats()
// and EpochStats::obs then cover every replica, as /metrics does.
#pragma once

#include <barrier>
#include <memory>

#include "core/pipeline.hpp"

namespace gnndrive {

struct MultiGpuConfig {
  GnnDriveConfig replica;           ///< per-replica pipeline configuration
  std::uint32_t num_replicas = 2;
  double allreduce_overhead_us = 120.0;  ///< per-sync launch/IPC overhead
  double interconnect_mb_s = 8000.0;     ///< PCIe/NVLink all-reduce bandwidth
};

class MultiGpuGnnDrive : NonCopyable {
 public:
  MultiGpuGnnDrive(const RunContext& ctx, MultiGpuConfig config);
  ~MultiGpuGnnDrive();

  /// Runs one epoch across all replicas; epoch_seconds is the wall time of
  /// the slowest replica, loss/accuracy are averaged. A replica that throws
  /// drops out of the gradient barrier so its siblings finish; once every
  /// replica has returned, the first failure is rethrown.
  EpochStats run_epoch(std::uint64_t epoch);

  double evaluate();
  std::uint32_t num_replicas() const { return config_.num_replicas; }
  GnnDrive& replica(std::uint32_t i) { return *replicas_[i]; }

 private:
  RunContext ctx_;
  MultiGpuConfig config_;
  std::vector<std::unique_ptr<GnnDrive>> replicas_;
};

}  // namespace gnndrive
