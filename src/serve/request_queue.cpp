#include "serve/request_queue.hpp"

namespace gnndrive {

RequestQueue::RequestQueue(const ServeConfig& config,
                           MetricsRegistry& registry)
    : deadline_ms_(config.slo.deadline_ms),
      q_(std::max<std::size_t>(config.queue_capacity, 1)),
      submitted_(registry.counter("serve.submitted")),
      rejected_(registry.counter("serve.rejected")) {
  // Admission never blocks (try_push sheds), so push_blocked stays 0.
  q_.bind_metrics(registry.gauge("serve.queue.depth"),
                  registry.counter("serve.queue.push_blocked"),
                  registry.counter("serve.queue.pop_blocked"));
}

std::future<InferResult> RequestQueue::submit(NodeId node) {
  PendingRequest r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.node = node;
  r.arrival = Clock::now();
  if (deadline_ms_ > 0) {
    r.has_deadline = true;
    r.deadline = r.arrival + from_us(deadline_ms_ * 1e3);
  }
  std::future<InferResult> fut = r.promise.get_future();
  submitted_.add();
  // try_push moves the request out only on success, so the promise is still
  // ours to resolve on the rejection path.
  if (!q_.try_push(r)) {
    rejected_.add();
    InferResult res;
    res.request_id = r.id;
    res.status = InferStatus::kRejected;
    r.promise.set_value(res);
  }
  return fut;
}

}  // namespace gnndrive
