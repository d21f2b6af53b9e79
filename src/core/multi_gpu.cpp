#include "core/multi_gpu.hpp"

#include <thread>

#include "core/stage.hpp"

namespace gnndrive {

MultiGpuGnnDrive::MultiGpuGnnDrive(const RunContext& ctx,
                                   MultiGpuConfig config)
    : ctx_(ctx), config_(std::move(config)) {
  GD_CHECK(config_.num_replicas >= 1);
  for (std::uint32_t r = 0; r < config_.num_replicas; ++r) {
    // Identical model seed => identical initialization across replicas,
    // which per-step gradient averaging then keeps in lock-step.
    auto replica = std::make_unique<GnnDrive>(ctx_, config_.replica);
    replica->set_segment(r, config_.num_replicas);
    replicas_.push_back(std::move(replica));
  }
}

MultiGpuGnnDrive::~MultiGpuGnnDrive() = default;

EpochStats MultiGpuGnnDrive::run_epoch(std::uint64_t epoch) {
  const std::uint32_t n = config_.num_replicas;
  if (n == 1) return replicas_[0]->run_epoch(epoch);

  // Gradient bytes per all-reduce (value-sized, not optimizer state).
  const std::uint64_t grad_bytes =
      replicas_[0]->model().param_state_bytes() / 4;
  const double allreduce_us =
      2.0 * static_cast<double>(n - 1) / static_cast<double>(n) *
          static_cast<double>(grad_bytes) / config_.interconnect_mb_s +
      config_.allreduce_overhead_us * n;

  std::vector<GnnModel*> models;
  for (auto& r : replicas_) models.push_back(&r->model());

  const auto on_sync = [models, allreduce_us]() noexcept {
    // Runs on the last thread to arrive; everyone else is blocked at the
    // barrier — collective semantics, like NCCL all-reduce.
    GnnModel::average_grads(models);
    std::this_thread::sleep_for(from_us(allreduce_us));
  };
  std::barrier sync(n, on_sync);
  for (auto& r : replicas_) {
    r->set_grad_sync_hook([&sync](GnnModel&) { sync.arrive_and_wait(); });
  }
  // The hooks point at the stack barrier: clear them on every way out.
  struct HookReset {
    std::vector<std::unique_ptr<GnnDrive>>& replicas;
    ~HookReset() {
      for (auto& r : replicas) r->set_grad_sync_hook(nullptr);
    }
  } hook_reset{replicas_};

  std::vector<EpochStats> stats(n);
  StageGroup group;
  group.stage("replica", n, [&](Stage&, std::uint32_t r) {
    try {
      stats[r] = replicas_[r]->run_epoch(epoch);
    } catch (...) {
      // This replica never reaches the barrier again; drop out so its
      // siblings' gradient syncs stop waiting for it.
      sync.arrive_and_drop();
      throw;
    }
  });
  const TimePoint t0 = Clock::now();
  group.run();

  EpochStats out;
  out.epoch_seconds = to_seconds(Clock::now() - t0);
  for (const auto& s : stats) {
    out.batches += s.batches;
    out.loss += s.loss / n;
    out.train_accuracy += s.train_accuracy / n;
    out.sample_seconds += s.sample_seconds;
    out.extract_seconds += s.extract_seconds;
    out.train_seconds += s.train_seconds;
  }
  return out;
}

double MultiGpuGnnDrive::evaluate() { return replicas_[0]->evaluate(); }

}  // namespace gnndrive
