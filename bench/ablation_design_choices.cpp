// Ablation study of GNNDrive's design decisions (not a paper figure; the
// per-experiment index in DESIGN.md calls these out):
//   A1 asynchronous extraction  — ring depth 256 vs 1 (effectively sync);
//   A2 direct I/O               — vs buffered feature loads through the OS
//                                 page cache (re-creating contention);
//   A3 extractor parallelism    — 4 vs 1 extractors;
//   A4 feature-buffer reuse     — default sizing vs the bare Ne x Mb
//                                 reserve (no inter-batch standby reuse);
//   A5 mini-batch reordering    — 4 samplers vs 1 (in-order pipeline).
// Each row removes exactly one mechanism from the full system.
#include <functional>

#include "bench/bench_common.hpp"

using namespace gnndrive;
using namespace gnndrive::bench;

namespace {

double run_variant(const char* label, const Dataset& dataset,
                   const std::function<void(GnnDriveConfig&)>& tweak,
                   double baseline) {
  Env env = make_env(dataset);
  GnnDriveConfig cfg;
  cfg.common = common_config(ModelKind::kSage);
  cfg.gpu.device_memory_bytes = paper_gb(kDefaultGpuGB);
  tweak(cfg);
  GnnDrive system(env.ctx, cfg);
  system.run_epoch(1000);  // warm-up
  const auto reads_before = env.ssd->stats().reads;
  EpochStats mean;
  const int epochs = measure_epochs();
  for (int e = 0; e < epochs; ++e) {
    mean.epoch_seconds += system.run_epoch(e).epoch_seconds / epochs;
  }
  const auto fb = system.feature_buffer().stats();
  std::printf("%-34s %10.3f", label, mean.epoch_seconds);
  if (baseline > 0) {
    std::printf("  %5.2fx vs full", mean.epoch_seconds / baseline);
  }
  std::printf("   (loads %llu, reuse %llu, ssd reads/epoch %llu)\n",
              static_cast<unsigned long long>(fb.loads),
              static_cast<unsigned long long>(fb.reuse_hits),
              static_cast<unsigned long long>(
                  (env.ssd->stats().reads - reads_before) / epochs));
  std::fflush(stdout);
  return mean.epoch_seconds;
}

}  // namespace

int main() {
  print_banner("Ablation: GNNDrive design choices",
               "Each variant disables one mechanism (papers100m, "
               "GraphSAGE). Expect every ablation to be slower than the "
               "full system.");

  const Dataset& dataset = get_dataset("papers100m");
  std::printf("%-34s %10s\n", "variant", "epoch(s)");
  const double full =
      run_variant("full GNNDrive", dataset, [](GnnDriveConfig&) {}, 0.0);
  run_variant("A1: sync extraction (depth 1)", dataset,
              [](GnnDriveConfig& c) { c.ring_depth = 1; }, full);
  run_variant("A2: buffered feature I/O", dataset,
              [](GnnDriveConfig& c) { c.direct_io = false; }, full);
  run_variant("A3: one extractor", dataset,
              [](GnnDriveConfig& c) { c.num_extractors = 1; }, full);
  run_variant("A4: minimum feature buffer", dataset,
              [](GnnDriveConfig& c) { c.feature_buffer_scale = 0.01; },
              full);
  run_variant("A5: one sampler (in order)", dataset,
              [](GnnDriveConfig& c) { c.num_samplers = 1; }, full);
  run_variant("X1: GPUDirect Storage mode", dataset,
              [](GnnDriveConfig& c) { c.gds_mode = true; }, full);
  return 0;
}
