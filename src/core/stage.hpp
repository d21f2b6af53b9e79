// The stage runner: one lifecycle for every threaded stage (Sect. 4.1).
//
// A StageGroup is a set of worker pools joined by bounded links — a training
// epoch, the serve workers, a baseline's loaders, the multi-GPU replicas.
// Its states follow bscheduler's pipeline_base: kInitial while links and
// stages are declared, kStarting/kStarted once start() spawns the workers,
// kStopping while they drain, kStopped once join() has joined them all.
// For its whole life the group holds its liveness gauge (pipeline.running /
// serve.running, read by /readyz) and a time-series sampler lease, so a
// caller that times the run takes both outside its window. The
// drain contract — links close downstream as their producers exit; the
// first error aborts the group and every undelivered item goes to its
// link's dispose callback exactly once — is in docs/internals.md,
// "Pipeline & queues".
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/queue.hpp"

namespace gnndrive {

struct StageGroupOptions {
  Gauge* running = nullptr;              ///< +1 while the group exists
  TimeSeriesSampler* sampler = nullptr;  ///< leased while the group exists
  /// Where stages keep stage.<name>.us and links <name>.depth,
  /// .push_blocked and .pop_blocked; none without it.
  MetricsRegistry* metrics = nullptr;
  SpanTracer* tracer = nullptr;  ///< set only while tracing: spans go here
  std::uint32_t epoch = 0;       ///< the spans' epoch tag
};

/// The type-independent side of a Link, which its group drives.
class LinkBase : NonCopyable {
 public:
  virtual ~LinkBase() = default;
  virtual void close() = 0;
  virtual void dispose_rest() = 0;  ///< disposes what the closed link holds
  std::atomic<std::uint32_t> producers{0};  ///< feeding workers still alive
};

/// A bounded queue between stages, with the dispose callback for items that
/// will never be consumed (for batches: release their references).
template <typename T>
class Link final : public LinkBase {
 public:
  using Dispose = std::function<void(T&)>;
  Link(const std::string& name, std::size_t capacity, Dispose dispose,
       const std::atomic<bool>& abort, const StageGroupOptions& opts)
      : q_(capacity), dispose_(std::move(dispose)), abort_(abort),
        opts_(opts) {
    if (MetricsRegistry* reg = opts.metrics) {
      q_.bind_metrics(reg->gauge(name + ".depth"),
                      reg->counter(name + ".push_blocked"),
                      reg->counter(name + ".pop_blocked"));
    }
  }

  /// Blocks while full; a closed link disposes the item and returns false.
  bool push(T item) {
    std::optional<T> refused = q_.push_or_reclaim(std::move(item));
    if (refused.has_value()) dispose_(*refused);
    return !refused.has_value();
  }

  /// The consumer loop: runs `fn` on each item until the link is closed and
  /// drained, recording each pop's queue_wait span while tracing. Once the
  /// group aborts, popped items are disposed instead; an item `fn` throws
  /// on is disposed before the exception leaves.
  template <typename F>
  void each(F&& fn) {
    SpanTracer* const tracer = opts_.tracer;
    for (;;) {
      const TimePoint wait = tracer != nullptr ? Clock::now() : TimePoint{};
      std::optional<T> item = q_.pop();
      if (!item.has_value()) return;
      if (abort_.load(std::memory_order_relaxed)) {
        dispose_(*item);
        continue;
      }
      if constexpr (requires { item->batch_id; }) {
        if (tracer != nullptr) {
          tracer->record(kSpanQueueWait, item->batch_id, opts_.epoch, wait,
                         Clock::now());
        }
      }
      try {
        fn(*item);
      } catch (...) {
        dispose_(*item);
        throw;
      }
    }
  }

  std::size_t max_size() const { return q_.max_size(); }
  void close() override { q_.close(); }
  void dispose_rest() override {
    while (std::optional<T> item = q_.pop()) dispose_(*item);
  }

 private:
  BoundedQueue<T> q_;
  Dispose dispose_;
  const std::atomic<bool>& abort_;  ///< the group is aborting
  const StageGroupOptions& opts_;
};

/// A named pool of workers running one body. A stage of zero threads is a
/// clock that other stages' workers time inline work with.
class Stage : NonCopyable {
 public:
  /// Runs once per worker thread, with that worker's index.
  using Body = std::function<void(Stage& self, std::uint32_t worker)>;

  Stage(const char* name, std::uint32_t threads, Body body,
        std::vector<LinkBase*> outputs, const StageGroupOptions& opts)
      : name_(name), threads_(threads), body_(std::move(body)),
        outputs_(std::move(outputs)),
        hist_(opts.metrics != nullptr
                  ? &opts.metrics->histogram(std::string("stage.") + name +
                                             ".us")
                  : nullptr),
        opts_(opts) {}

  /// Runs `work` as item `id` of this stage and returns its result: one
  /// clock pair feeds the stage histogram (stage.<name>.us), the <name>
  /// span while tracing, and seconds().
  template <typename F>
  auto time(std::uint64_t id, F&& work) {
    const TimePoint begin = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      work();
      note(id, begin, Clock::now());
    } else {
      auto result = work();
      note(id, begin, Clock::now());
      return result;
    }
  }
  /// Summed per-item time of every time() call.
  double seconds() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) / 1e9;
  }

 private:
  friend class StageGroup;
  void note(std::uint64_t id, TimePoint begin, TimePoint end);

  const char* name_;
  std::uint32_t threads_;
  Body body_;
  std::vector<LinkBase*> outputs_;  ///< links this stage feeds
  ConcurrentHistogram* hist_;
  const StageGroupOptions& opts_;
  std::atomic<std::uint64_t> ns_{0};
};

enum class StageState { kInitial, kStarting, kStarted, kStopping, kStopped };

class StageGroup : NonCopyable {
 public:
  explicit StageGroup(StageGroupOptions options = {});
  /// A group still running is stopped and joined; its error is logged,
  /// since a destructor cannot throw it.
  ~StageGroup();

  template <typename T>
  Link<T>& link(const std::string& name, std::size_t capacity,
                typename Link<T>::Dispose dispose = {}) {
    if (!dispose) dispose = [](T&) {};
    links_.push_back(std::make_unique<Link<T>>(
        name, capacity, std::move(dispose), aborting_, opts_));
    return static_cast<Link<T>&>(*links_.back());
  }
  /// Each of `outputs` closes once the last worker feeding it has exited.
  Stage& stage(const char* name, std::uint32_t threads, Stage::Body body,
               std::initializer_list<LinkBase*> outputs = {});
  /// An outside queue feeding the group: stop() and an abort close it.
  void feed_from(std::function<void()> close) {
    inputs_.push_back(std::move(close));
  }

  void start();
  /// Waits for every worker, disposes what the links still hold, then
  /// rethrows the first error.
  void join();
  /// Closes the outside inputs, then join().
  void stop();
  void run() {
    start();
    join();
  }

  StageState state() const { return state_.load(); }
  bool aborting() const { return aborting_.load(std::memory_order_relaxed); }

 private:
  void work(Stage& stage, std::uint32_t worker);
  void abort(std::exception_ptr error);

  const StageGroupOptions opts_;
  SamplerLease lease_;
  std::vector<std::unique_ptr<LinkBase>> links_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::vector<std::function<void()>> inputs_;
  std::atomic<StageState> state_{StageState::kInitial};
  std::atomic<bool> aborting_{false};
  std::exception_ptr error_;  ///< the first one, set by whoever aborts first
  std::vector<std::thread> threads_;  ///< last: workers use every member
};

}  // namespace gnndrive
