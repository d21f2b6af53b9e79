// Admission-controlled request queue for GNNDrive-Serve.
//
// The front door of the serving path: clients submit node ids and get a
// future back immediately. The queue is bounded — when it is full the
// request is rejected on the submitting thread (the future resolves with
// kRejected right away) instead of blocking the client, which is the
// serving equivalent of backpressure: overload sheds at the cheapest
// possible point, before any sampling or I/O happened. Deadlines are
// stamped at admission so every later stage can shed expired work with one
// clock comparison.
#pragma once

#include <atomic>
#include <future>
#include <optional>

#include "serve/request.hpp"
#include "util/queue.hpp"

namespace gnndrive {

/// One admitted request in flight through the serving pipeline. Moved from
/// the queue into a micro-batch; the promise is resolved exactly once by
/// whichever stage terminates the request.
struct PendingRequest {
  std::uint64_t id = 0;
  NodeId node = 0;
  TimePoint arrival{};
  TimePoint deadline{};  ///< arrival + SLO; meaningful iff has_deadline
  bool has_deadline = false;
  double queue_us = 0.0;  ///< filled when a worker picks the request up
  std::promise<InferResult> promise;
};

class RequestQueue : NonCopyable {
 public:
  /// Counts serve.submitted / serve.rejected and publishes the
  /// serve.queue.depth gauge into `registry` (the serve engine's).
  RequestQueue(const ServeConfig& config, MetricsRegistry& registry);

  /// Admits or sheds. Never blocks: on a full (or closed) queue the
  /// promise is resolved with kRejected before returning. The returned
  /// future is valid either way.
  std::future<InferResult> submit(NodeId node);

  // -- Consumer side (the micro-batch coalescer) ---------------------------
  std::optional<PendingRequest> pop() { return q_.pop(); }
  std::optional<PendingRequest> try_pop_for(Duration timeout) {
    return q_.try_pop_for(timeout);
  }

  /// Closes admission: subsequent submits reject, pops drain the backlog
  /// then return nullopt.
  void close() { q_.close(); }

  std::size_t max_depth() const { return q_.max_size(); }

 private:
  const double deadline_ms_;
  BoundedQueue<PendingRequest> q_;
  std::atomic<std::uint64_t> next_id_{1};
  Counter& submitted_;  ///< serve.submitted
  Counter& rejected_;   ///< serve.rejected
};

}  // namespace gnndrive
