// Request/result vocabulary of GNNDrive-Serve, the online inference
// serving subsystem (docs/serving.md).
//
// Serving accepts per-node classification requests and drives them through
// sample -> extract -> infer micro-batches that share the training
// pipeline's feature buffer, staging arenas, io ring and simulated SSD. This
// header holds the types that cross the serving API boundary; the
// machinery lives in request_queue.hpp / coalescer.hpp / engine.hpp.
#pragma once

#include <cstdint>
#include <string>

#include "core/extract.hpp"  // CoalesceConfig (shared with training)
#include "core/system.hpp"   // StageLatency (p50/p95/p99 summary rows)
#include "sampling/sampler.hpp"

namespace gnndrive {

/// Terminal state of one inference request.
enum class InferStatus {
  kOk = 0,        ///< served; predicted_class is valid
  kRejected,      ///< shed at admission (request queue full or closed)
  kShedDeadline,  ///< shed before service (SLO deadline already blown)
  kFailed,        ///< dropped: extraction failed permanently or overload
};

const char* infer_status_name(InferStatus status);

struct InferResult {
  std::uint64_t request_id = 0;
  InferStatus status = InferStatus::kRejected;
  std::int32_t predicted_class = -1;  ///< argmax logit; -1 unless kOk
  double queue_us = 0.0;   ///< arrival -> picked into a micro-batch
  double total_us = 0.0;   ///< arrival -> completion (the SLO latency)
  std::uint32_t coalesced_with = 0;  ///< requests in the same micro-batch
};

/// SLO knobs (docs/serving.md "SLO machinery").
struct ServeSloConfig {
  /// Per-request deadline measured from arrival; 0 disables deadlines.
  double deadline_ms = 50.0;
  /// Shed requests whose deadline already passed when a worker picks them
  /// up, instead of serving them uselessly late (deadline load shedding).
  bool shed_expired = true;
};

struct ServeConfig {
  /// Inference fanouts. Must match the model's layer count; the GnnDrive
  /// convenience constructor defaults this to the training sampler.
  SamplerConfig sampler;
  std::uint32_t workers = 2;         ///< sample+extract+infer workers
  std::size_t queue_capacity = 256;  ///< admission bound; beyond it, shed
  /// Micro-batch coalescing: a worker serves up to max_batch requests at
  /// once, waiting at most max_wait_us after the first request for more to
  /// arrive. max_batch = 1 degrades to the naive per-request path that
  /// bench/serve_latency compares against.
  std::uint32_t max_batch = 8;
  double max_wait_us = 300.0;
  ServeSloConfig slo;
  unsigned ring_depth = 64;  ///< per-worker async read depth
  /// Transient-error handling, mirroring training's extract stage: flat
  /// short retry delay (serving favours latency over backoff politeness),
  /// watchdog timeout for stuck reads, and a cap on waiting for nodes
  /// another thread is loading.
  std::uint32_t max_retries = 3;
  double retry_delay_us = 50.0;
  double request_timeout_ms = 250.0;
  double wait_list_timeout_ms = 10000.0;
  /// Sorted-run read merging for serve extraction, same machinery and knobs
  /// as training (core/extract.hpp); `coalesce.enabled = false` restores
  /// one read per to-load node.
  CoalesceConfig coalesce;
};

/// End-of-run serving report: the epoch-style summary for the serve path,
/// computed from the "serve.*" registry instruments (ServeEngine::report).
struct ServeReport {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;        ///< admission shed (queue full)
  std::uint64_t shed_deadline = 0;   ///< deadline shed (SLO blown)
  std::uint64_t batches = 0;         ///< micro-batches collected
  double coalesce_factor = 0.0;      ///< mean requests per micro-batch
  std::uint64_t io_errors = 0;
  std::uint64_t io_retries = 0;
  StageLatency queue_wait;  ///< per request: arrival -> picked
  StageLatency extract;     ///< per micro-batch extract time
  StageLatency infer;       ///< per micro-batch forward pass
  StageLatency latency;     ///< per served request: arrival -> done
  double fb_hit_rate = 0.0; ///< feature-buffer hit rate over the run
  std::uint64_t queue_depth_max = 0;

  /// Multi-line printable summary (format of EpochObs::format).
  std::string format() const;
};

}  // namespace gnndrive
