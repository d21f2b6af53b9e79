#include "core/stage.hpp"

#include <chrono>
#include <utility>

#include "util/logging.hpp"

namespace gnndrive {

void Stage::note(std::uint64_t id, TimePoint begin, TimePoint end) {
  const Duration d = end - begin;
  ns_.fetch_add(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                        .count()),
                std::memory_order_relaxed);
  if (hist_ != nullptr) hist_->add_us(to_seconds(d) * 1e6);
  if (opts_.tracer != nullptr) {
    opts_.tracer->record(name_, id, opts_.epoch, begin, end);
  }
}

StageGroup::StageGroup(StageGroupOptions options)
    : opts_(options), lease_(options.sampler) {
  if (opts_.running != nullptr) opts_.running->add(1);
}

StageGroup::~StageGroup() {
  try {
    stop();
  } catch (const std::exception& e) {
    GD_LOG_WARN("stage group stopped by its destructor: %s", e.what());
  } catch (...) {
    GD_LOG_WARN("stage group stopped by its destructor: unknown error");
  }
  if (opts_.running != nullptr) opts_.running->sub(1);
}

Stage& StageGroup::stage(const char* name, std::uint32_t threads,
                         Stage::Body body,
                         std::initializer_list<LinkBase*> outputs) {
  for (LinkBase* out : outputs) out->producers += threads;
  stages_.push_back(std::make_unique<Stage>(name, threads, std::move(body),
                                            outputs, opts_));
  return *stages_.back();
}

void StageGroup::start() {
  GD_CHECK_MSG(state_.exchange(StageState::kStarting) == StageState::kInitial,
               "StageGroup::start called twice");
  for (const auto& link : links_) {
    if (link->producers == 0) link->close();  // nothing can ever feed it
  }
  try {
    for (auto& stage : stages_) {
      for (std::uint32_t w = 0; w < stage->threads_; ++w) {
        threads_.emplace_back(&StageGroup::work, this, std::ref(*stage), w);
      }
    }
  } catch (...) {
    abort(std::current_exception());  // a worker that cannot spawn fails
    join();
  }
  StageState starting = StageState::kStarting;
  state_.compare_exchange_strong(starting, StageState::kStarted);
}

void StageGroup::work(Stage& stage, std::uint32_t worker) {
  try {
    stage.body_(stage, worker);
  } catch (...) {
    abort(std::current_exception());
  }
  for (LinkBase* out : stage.outputs_) {
    if (out->producers.fetch_sub(1) == 1) out->close();
  }
}

void StageGroup::abort(std::exception_ptr error) {
  if (aborting_.exchange(true)) return;  // only the first error counts
  error_ = std::move(error);
  state_ = StageState::kStopping;
  for (const auto& close : inputs_) close();
  for (const auto& link : links_) link->close();
  // Dispose now, not at join(): a live worker may be blocked on the slots
  // these items pin.
  for (const auto& link : links_) link->dispose_rest();
}

void StageGroup::join() {
  const StageState was = state_.exchange(StageState::kStopping);
  if (was == StageState::kInitial || was == StageState::kStopped) {
    state_ = was;
    return;
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  for (const auto& link : links_) {
    link->close();
    link->dispose_rest();
  }
  state_ = StageState::kStopped;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void StageGroup::stop() {
  if (state_ == StageState::kInitial) return;
  for (const auto& close : inputs_) close();
  join();
}

}  // namespace gnndrive
