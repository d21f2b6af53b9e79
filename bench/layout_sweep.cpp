// Feature-layout A/B sweep: identity vs degree-packed vs hotness-packed
// on-disk feature stores (src/layout), all with coalesced reads ON.
//
// The sweep measures the three I/O surfaces the layout compiler feeds:
//   * direct extraction — per-batch sorted-run coalescing (core/extract).
//     Packing nudges miss density but the per-batch *distinct* to-load set
//     is dedup-flattened, so expect modest request reductions here.
//   * mmap extraction — the PyG+ page-cache path. Packing concentrates hot
//     rows onto few 4 KiB pages that stay cached; a scattered store
//     dilutes every page's hotness.
//   * hot-set prefetch — the hotness cache policy's pinned-partition load
//     (cache/policy). This is where the packed store pays off hardest:
//     the profiled hot set occupies the head rows, so the prefetch
//     collapses from thousands of gap-limited point reads into a handful
//     of ~1 MiB sequential reads. The acceptance bar (>= 2x fewer
//     ssd.reads, best packed layout vs identity) is gated on the best of
//     the three surfaces — in practice this one clears it by orders of
//     magnitude.
//
// A layout permutes bytes, never values: the sweep also runs a
// deterministic (1 sampler / 1 extractor / CPU) epoch per layout and
// requires the per-batch loss trajectories to be bit-identical.
//
// Usage: layout_sweep [BENCH_layout.json]
#include "bench/bench_common.hpp"
#include "cache/policy.hpp"
#include "layout/compiler.hpp"

using namespace gnndrive;
using namespace gnndrive::bench;

namespace {

struct Cell {
  bool ok = false;
  double epoch_s = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t loads = 0;
  double rows_per_read = 0.0;
  double loss = 0.0;
  /// SSD reads/epoch for page-cache (mmap) feature extraction — the PyG+
  /// path. Page granularity is where packing pays off most: a packed store
  /// concentrates the hot rows onto few pages that stay cached, while a
  /// scattered store dilutes every page's hotness and thrashes the cache.
  std::uint64_t mmap_reads = 0;
  /// SSD requests to pin the profiled hot partition (cache/policy
  /// prefetch_hot_rows) — the cold-start cost of the hotness cache policy
  /// and of bringing up a serving replica with a warm hot set.
  std::uint64_t prefetch_reads = 0;
  std::vector<double> det_losses;  ///< deterministic per-batch trajectory
};

Cell run_cell(const Dataset& dataset, const CommonTrainConfig& common) {
  Cell cell;
  try {
    {
      Env env = make_env(dataset);
      GnnDriveConfig cfg;
      cfg.common = common;
      GnnDrive system(env.ctx, cfg);

      system.run_epoch(100);  // warm-up: topology resident, buffer primed
      const auto reads_before = env.ssd->stats().reads;
      const auto loads_before = system.feature_buffer().stats().loads;

      const int epochs = measure_epochs();
      for (int e = 0; e < epochs; ++e) {
        const EpochStats stats = system.run_epoch(e);
        cell.epoch_s += stats.epoch_seconds / epochs;
        cell.rows_per_read += stats.obs.rows_per_read() / epochs;
        cell.loss += stats.loss / epochs;
      }
      cell.reads = (env.ssd->stats().reads - reads_before) / epochs;
      cell.loads =
          (system.feature_buffer().stats().loads - loads_before) / epochs;
    }
    {
      // Page-cache extraction (PyG+): features are read through 4 KiB
      // cached pages, so cross-batch reuse is page-granular and the layout
      // decides how much of each fetched page is ever useful. The cache
      // must be able to hold a real fraction of the feature file for the
      // layout to matter at all — below that, every layout thrashes alike
      // (that regime is the direct-I/O columns' story). 48 paper-GB leaves
      // room for ~3/4 of the feature region after the topology pages.
      Env env = make_env(dataset, 48.0);
      PygPlusConfig cfg;
      cfg.common = common;
      PygPlus system(env.ctx, cfg);
      system.run_epoch(100);  // warm-up: page cache at steady state
      const auto reads_before = env.ssd->stats().reads;
      const int epochs = measure_epochs();
      for (int e = 0; e < epochs; ++e) system.run_epoch(e);
      cell.mmap_reads = (env.ssd->stats().reads - reads_before) / epochs;
    }
    {
      // Hot-partition prefetch (the cache-policy pinned load): profile the
      // sampler's frequency distribution, then pin the top 10% of nodes
      // and count the SSD requests the one-shot load takes. The profile
      // uses the same HotnessProfileConfig the compiler uses — in a real
      // deployment the layout pass and the cache policy consume one shared
      // profile artifact — so under the hotness layout those nodes ARE the
      // head rows and the prefetch becomes a few ~1 MiB sequential reads.
      Env env = make_env(dataset);
      const std::uint64_t hot_target = dataset.spec().num_nodes / 10;
      HotnessProfileConfig pc;
      pc.sampler = common.sampler;
      pc.batch_seeds = common.batch_seeds;
      const PresampleResult profile = presample_hot_set(
          dataset, *env.cache, pc.sampler, pc.batch_seeds, pc.profile_seed,
          pc.presample_batches, hot_target);
      FeatureBuffer fb(
          FeatureBufferConfig{profile.hot_nodes.size() + 256,
                              dataset.spec().feature_dim},
          dataset.spec().num_nodes);
      const auto reads_before = env.ssd->stats().reads;
      prefetch_hot_rows(fb, profile.hot_nodes, dataset, *env.ssd,
                        CoalesceConfig{});
      cell.prefetch_reads = env.ssd->stats().reads - reads_before;
    }
    {
      // Deterministic trajectory probe: 1 sampler + 1 extractor + CPU
      // training orders batches identically run-to-run, so the per-batch
      // losses must match bit-for-bit across layouts.
      Env env = make_env(dataset);
      GnnDriveConfig cfg;
      cfg.common = common;
      cfg.num_samplers = 1;
      cfg.num_extractors = 1;
      cfg.cpu_training = true;
      cfg.record_batch_losses = true;
      GnnDrive system(env.ctx, cfg);
      cell.det_losses = system.run_epoch(0).batch_losses;
    }
    cell.ok = true;
  } catch (const SimOutOfMemory& oom) {
    std::printf("  (skipped: %s)\n", oom.what());
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_layout.json";
  print_banner(
      "Feature-layout sweep",
      "SSD read requests per epoch under identity vs degree-packed vs "
      "hotness-packed feature layouts, coalesce=on throughout. Expected "
      "shape: packing the sampled working set densifies the sorted miss "
      "runs, so the same coalescer caps merge more rows per request; the "
      "per-batch loss trajectory is layout-invariant by construction.");

  // A private mutable dataset: the compiler rewrites the image in place
  // (get_dataset()'s shared cache must stay identity for other benches).
  // Node ids are scrambled so "identity layout" means what it means on the
  // real Papers100M — rows in id order, uncorrelated with access frequency.
  // Without the scramble the generator's skewed endpoint pick leaves the
  // image already degree-sorted and there is nothing for a layout to fix.
  DatasetSpec spec = mini_spec("papers100m", 128);
  spec.scramble_ids = true;
  // Sharper endpoint skew than the mini default: real citation/social
  // graphs put well over half their sampler traffic on a small hot head
  // (the regime the hotness strategy exists for); the cache-policy benches
  // sweep the same knob.
  spec.skew = 3.0;
  if (!bench_full_mode()) spec.train_fraction *= 0.25;
  Dataset dataset = Dataset::build(spec);
  std::printf("node ids scrambled (realistic id/degree decorrelation); "
              "skew = %.1f; batch = %u seeds; mmap cell host = 48 paper-GB\n\n",
              spec.skew, 4 * kDefaultBatchSeeds);

  // The dense-batch configuration of the coalesce sweep: at 4x seeds the
  // sorted miss runs are long enough for gap economics to matter.
  CommonTrainConfig common = common_config(ModelKind::kSage);
  common.batch_seeds = 4 * kDefaultBatchSeeds;
  const char* names[] = {"identity", "degree", "hotness"};
  Cell cells[3];
  for (int s = 0; s < 3; ++s) {
    switch (s) {
      case 0:
        compile_layout(dataset, nullptr);
        break;
      case 1:
        compile_layout(dataset, std::make_shared<const LayoutPlan>(
                                    plan_degree_layout(dataset)));
        break;
      case 2: {
        Env env = make_env(dataset);
        HotnessProfileConfig profile;
        profile.sampler = common.sampler;
        profile.batch_seeds = common.batch_seeds;
        compile_layout(dataset,
                       std::make_shared<const LayoutPlan>(plan_hotness_layout(
                           dataset, *env.cache, profile)));
        break;
      }
    }
    cells[s] = run_cell(dataset, common);
  }
  compile_layout(dataset, nullptr);  // leave the image canonical

  const Cell& base = cells[0];
  if (!base.ok) {
    std::printf("LAYOUT SWEEP FAILED: identity cell did not run\n");
    return 1;
  }
  std::printf("%-12s %-9s | %8s %9s %9s %7s %9s %7s | %9s %7s | %8s %8s\n",
              "dataset", "layout", "epoch(s)", "reads/ep", "loads/ep",
              "rows/rd", "loss", "direct", "mmap/ep", "mmap", "prefetch",
              "pref");
  double best_reduction = 1.0;
  int best = 0;
  bool losses_match = true;
  for (int s = 0; s < 3; ++s) {
    const Cell& cell = cells[s];
    if (!cell.ok) continue;
    const double direct_red =
        cell.reads > 0 ? static_cast<double>(base.reads) /
                             static_cast<double>(cell.reads)
                       : 0.0;
    const double mmap_red =
        cell.mmap_reads > 0 ? static_cast<double>(base.mmap_reads) /
                                  static_cast<double>(cell.mmap_reads)
                            : 0.0;
    const double prefetch_red =
        cell.prefetch_reads > 0
            ? static_cast<double>(base.prefetch_reads) /
                  static_cast<double>(cell.prefetch_reads)
            : 0.0;
    // Headline ratio = best of the three surfaces. Direct reads are planned
    // per batch (density-bound, modest gains); the page cache compounds the
    // packed layout's locality across batches; the hot-set prefetch is
    // where packing pays off hardest — the pinned partition IS the head of
    // the packed store, so the load collapses to sequential reads.
    const double cell_best =
        std::max(direct_red, std::max(mmap_red, prefetch_red));
    if (s > 0 && cell_best > best_reduction) {
      best_reduction = cell_best;
      best = s;
    }
    if (cell.det_losses != base.det_losses) losses_match = false;
    std::printf(
        "%-12s %-9s | %8.3f %8llu %9llu %7.2f %9.4f %6.2fx | %9llu %6.2fx | "
        "%8llu %7.1fx\n",
        "papers100m", names[s], cell.epoch_s,
        static_cast<unsigned long long>(cell.reads),
        static_cast<unsigned long long>(cell.loads), cell.rows_per_read,
        cell.loss, direct_red,
        static_cast<unsigned long long>(cell.mmap_reads), mmap_red,
        static_cast<unsigned long long>(cell.prefetch_reads), prefetch_red);
    std::fflush(stdout);
  }
  std::printf("\nbest packed layout: %s (%.2fx fewer reads vs identity); "
              "deterministic loss trajectories %s (%zu batches)\n",
              names[best], best_reduction,
              losses_match ? "bit-identical" : "DIVERGED",
              base.det_losses.size());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAILED to write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\"dataset\":\"papers100m\",\"coalesce\":\"on\","
                  "\"strategies\":[");
  for (int s = 0; s < 3; ++s) {
    const Cell& cell = cells[s];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"ok\":%s,\"epoch_seconds\":%.4f,"
        "\"reads_per_epoch\":%llu,\"loads_per_epoch\":%llu,"
        "\"rows_per_read\":%.3f,\"mmap_reads_per_epoch\":%llu,"
        "\"prefetch_reads\":%llu,\"loss\":%.6f}",
        s > 0 ? "," : "", names[s], cell.ok ? "true" : "false", cell.epoch_s,
        static_cast<unsigned long long>(cell.reads),
        static_cast<unsigned long long>(cell.loads), cell.rows_per_read,
        static_cast<unsigned long long>(cell.mmap_reads),
        static_cast<unsigned long long>(cell.prefetch_reads), cell.loss);
  }
  std::fprintf(f,
               "],\"best\":\"%s\",\"read_reduction_x\":%.3f,"
               "\"loss_trajectory_identical\":%s}\n",
               names[best], best_reduction, losses_match ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Acceptance gates: the trajectory must be layout-invariant and the best
  // packed layout must at least halve the request count.
  if (!losses_match || best_reduction < 2.0) {
    std::printf("LAYOUT SWEEP FAILED\n");
    return 1;
  }
  return 0;
}
