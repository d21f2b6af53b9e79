// Micro-batch coalescer for GNNDrive-Serve.
//
// Individual inference requests are tiny (one seed), but their sampled
// fanouts overlap heavily — serving them one at a time repeats feature-
// buffer lookups and SSD reads that a merged batch performs once. The
// coalescer groups concurrent requests under two bounds:
//
//   * size:  at most `max_batch` requests per micro-batch, so a burst
//            cannot grow the batch (and its extract latency) without limit;
//   * time:  at most `max_wait_us` after the FIRST request was picked up,
//            so a lone request under light load pays a bounded latency tax.
//
// The time bound rides on BoundedQueue::try_pop_for: a request that is
// already queued is always preferred over the timeout, so under load the
// window never adds idle waiting — it only fills.
#pragma once

#include <vector>

#include "serve/request_queue.hpp"

namespace gnndrive {

class MicroBatchCoalescer : NonCopyable {
 public:
  MicroBatchCoalescer(RequestQueue& queue, std::uint32_t max_batch,
                      double max_wait_us)
      : queue_(queue), max_batch_(std::max(max_batch, 1u)),
        max_wait_(from_us(std::max(max_wait_us, 0.0))) {}

  /// Blocks for the first request, then collects until the batch is full or
  /// the wait window closes. An empty vector means the queue is closed and
  /// drained (worker shutdown).
  std::vector<PendingRequest> collect();

 private:
  RequestQueue& queue_;
  const std::uint32_t max_batch_;
  const Duration max_wait_;
};

}  // namespace gnndrive
