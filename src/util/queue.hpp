// Bounded blocking multi-producer/multi-consumer queue.
//
// This is the "middle-person" primitive of the GNNDrive pipeline (Sect. 4.1):
// the extracting, training and releasing queues are all instances. Producers
// block when the queue is full (the paper: "samplers and extractors would be
// blocked if corresponding queues are full"); consumers block when empty.
// close() releases all waiters, letting stages drain and terminate cleanly.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "util/common.hpp"

namespace gnndrive {

template <typename T>
class BoundedQueue : NonCopyable {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    GD_CHECK(capacity > 0);
  }

  /// Observability: publishes the queue depth into `depth` (updated under
  /// the queue lock) and counts producer/consumer blocking events into the
  /// given registry instruments, which must outlive the queue. An unbound
  /// queue counts into instruments of its own.
  void bind_metrics(Gauge& depth, Counter& push_blocked,
                    Counter& pop_blocked) {
    std::lock_guard lock(mu_);
    depth_ = &depth;
    push_blocked_ = &push_blocked;
    pop_blocked_ = &pop_blocked;
    depth_->set(static_cast<std::int64_t>(items_.size()));
  }

  /// Blocks until space is available. Returns false if the queue was closed.
  bool push(T item) { return !push_or_reclaim(std::move(item)).has_value(); }

  /// Like push(), but hands the item back instead of dropping it when the
  /// queue is closed, so the caller can dispose of it (e.g. release feature
  /// references during an epoch abort). nullopt means the push succeeded.
  std::optional<T> push_or_reclaim(T item) {
    std::unique_lock lock(mu_);
    if (items_.size() >= capacity_ && !closed_) push_blocked_->add();
    not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return std::optional<T>(std::move(item));
    put_locked(std::move(item));
    return std::nullopt;
  }

  /// Blocks until an item is available. Empty optional means closed & drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    if (items_.empty() && !closed_) pop_blocked_->add();
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    return take_locked();
  }

  /// Non-blocking push: false when the queue is full or closed (the item is
  /// handed back untouched in that case). This is the admission-control
  /// primitive of the serving path — a full queue sheds instead of blocking
  /// the client.
  bool try_push(T& item) {
    std::lock_guard lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    put_locked(std::move(item));
    return true;
  }

  /// Timed pop: blocks until an item arrives, the queue closes, or `timeout`
  /// elapses, whichever comes first. An item that is already queued (or
  /// arrives within the window) is always returned in preference to the
  /// timeout — a wakeup racing the deadline re-checks the queue under the
  /// lock before giving up. Empty optional means timeout, or closed and
  /// drained. Used by the micro-batch coalescer's max-wait window.
  std::optional<T> try_pop_for(Duration timeout) {
    std::unique_lock lock(mu_);
    if (items_.empty() && !closed_) pop_blocked_->add();
    not_empty_.wait_for(lock, timeout,
                        [&] { return !items_.empty() || closed_; });
    return take_locked();
  }

  /// Wakes all blocked producers/consumers; subsequent pushes fail and pops
  /// drain the remaining items then return nullopt.
  void close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Deepest the queue has ever been (for end-of-epoch reports; queues are
  /// created per epoch, so no reset is needed).
  std::size_t max_size() const {
    std::lock_guard lock(mu_);
    return max_size_;
  }

 private:
  void put_locked(T&& item) {
    items_.push_back(std::move(item));
    note_depth_locked();
    not_empty_.notify_one();
  }
  std::optional<T> take_locked() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    note_depth_locked();
    not_full_.notify_one();
    return item;
  }
  void note_depth_locked() {
    max_size_ = std::max(max_size_, items_.size());
    depth_->set(static_cast<std::int64_t>(items_.size()));
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t max_size_ = 0;
  bool closed_ = false;
  Gauge own_depth_;
  Counter own_push_blocked_;
  Counter own_pop_blocked_;
  Gauge* depth_ = &own_depth_;
  Counter* push_blocked_ = &own_push_blocked_;
  Counter* pop_blocked_ = &own_pop_blocked_;
};

}  // namespace gnndrive
