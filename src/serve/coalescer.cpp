#include "serve/coalescer.hpp"

namespace gnndrive {

std::vector<PendingRequest> MicroBatchCoalescer::collect() {
  std::vector<PendingRequest> batch;
  auto first = queue_.pop();
  if (!first.has_value()) return batch;  // closed & drained
  batch.reserve(max_batch_);
  batch.push_back(std::move(*first));
  if (max_batch_ > 1 && max_wait_ > Duration::zero()) {
    const TimePoint window_end = Clock::now() + max_wait_;
    while (batch.size() < max_batch_) {
      const TimePoint now = Clock::now();
      if (now >= window_end) break;
      auto r = queue_.try_pop_for(window_end - now);
      if (!r.has_value()) break;  // window elapsed (or queue closed & empty)
      batch.push_back(std::move(*r));
    }
  } else if (max_batch_ > 1) {
    // Zero window: opportunistically absorb whatever is already queued.
    while (batch.size() < max_batch_) {
      auto r = queue_.try_pop_for(Duration::zero());
      if (!r.has_value()) break;
      batch.push_back(std::move(*r));
    }
  }
  return batch;
}

}  // namespace gnndrive
