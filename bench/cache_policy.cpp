// Feature-cache policy A/B: LRU standby list vs the hotness-aware pinned
// partition vs the Belady (MIN) oracle, across access-skew levels and
// feature-buffer budgets.
//
// For each skew level the bench builds a papers100m-mini variant whose
// endpoint-sampling exponent controls how hard sampler traffic concentrates
// on low-id nodes, then trains measured epochs per policy on identical
// seeds at two buffer budgets:
//
//   * default — the paper's sizing ((Ne + train_queue_cap) x Mb slots).
//     The buffer holds ~20% of the graph, LRU already captures most
//     temporal locality, and the hotness win shows up mainly as fewer
//     ssd.reads (the pinned head never re-loads across epochs).
//   * tight   — one extractor and feature_buffer_scale 0.45 (~12k slots,
//     ~5% of the graph). Capacity misses dominate, LRU recency is nearly
//     worthless between epochs, and pinning the frequency head is the
//     difference between thrashing and hitting: the >= 1.5x hit-rate
//     target is met here on the skewed configs.
//
// A trace-driven simulator row replays the same epoch-0 access sequence
// through LRU, hotness and Belady's optimal replacement at the measured
// slot budget — the oracle knows the future, so its hit rate upper-bounds
// every realizable policy. Training is byte-identical across policies (the
// differential test in tests/cache_policy_test.cpp holds the proof); only
// I/O shifts.
#include "bench/bench_common.hpp"

#include "cache/belady.hpp"

using namespace gnndrive;
using namespace gnndrive::bench;

namespace {

struct Budget {
  const char* name;
  std::uint32_t extractors;  ///< 0 = config default
  double fb_scale;
  double hot_fraction;
};

struct Cell {
  bool ok = false;
  double epoch_s = 0.0;
  double hit_rate = 0.0;       ///< (hot + reuse + wait) / lookups
  std::uint64_t hot_hits = 0;  ///< per measured epoch
  std::uint64_t reuse = 0;
  std::uint64_t waits = 0;
  std::uint64_t loads = 0;
  std::uint64_t reads = 0;          ///< SSD reads per measured epoch
  std::uint64_t slots = 0;
  std::uint64_t hot_slots = 0;
  std::uint64_t prefetch_reads = 0; ///< one-time hot-partition load cost
};

Cell run_cell(const Dataset& dataset, const Budget& budget,
              CachePolicy policy) {
  Cell cell;
  try {
    Env env = make_env(dataset);
    GnnDriveConfig cfg;
    cfg.common = common_config(ModelKind::kSage);
    cfg.cache.policy = policy;
    cfg.cache.hot_fraction = budget.hot_fraction;
    if (budget.extractors != 0) cfg.num_extractors = budget.extractors;
    cfg.feature_buffer_scale = budget.fb_scale;
    GnnDrive system(env.ctx, cfg);

    // Warm-up epoch: materializes the hot partition (hotness) and primes
    // the buffer/topology for both policies, so the measured epochs compare
    // steady-state recycling, not cold-start effects.
    const std::uint64_t reads0 = env.ssd->stats().reads;
    system.ensure_hot_cache();
    cell.prefetch_reads = env.ssd->stats().reads - reads0;
    system.run_epoch(100);

    const std::uint64_t reads_before = env.ssd->stats().reads;
    const FeatureBufferStats before = system.feature_buffer().stats();
    const int epochs = measure_epochs();
    for (int e = 0; e < epochs; ++e) {
      const EpochStats stats = system.run_epoch(e);
      cell.epoch_s += stats.epoch_seconds / epochs;
    }
    const FeatureBufferStats after = system.feature_buffer().stats();
    cell.hot_hits = (after.hot_hits - before.hot_hits) / epochs;
    cell.reuse = (after.reuse_hits - before.reuse_hits) / epochs;
    cell.waits = (after.wait_hits - before.wait_hits) / epochs;
    cell.loads = (after.loads - before.loads) / epochs;
    const std::uint64_t hits = cell.hot_hits + cell.reuse + cell.waits;
    cell.hit_rate = hits + cell.loads > 0
                        ? static_cast<double>(hits) /
                              static_cast<double>(hits + cell.loads)
                        : 0.0;
    cell.reads = (env.ssd->stats().reads - reads_before) / epochs;
    cell.slots = system.feature_buffer().num_slots();
    cell.hot_slots = system.feature_buffer().hot_slots();
    cell.ok = true;
  } catch (const SimOutOfMemory& oom) {
    std::printf("  (skipped: %s)\n", oom.what());
  }
  return cell;
}

void print_cell(double skew, const Budget& budget, const char* policy,
                const Cell& c, const Cell* base) {
  std::printf("%5.2f %-7s %-9s %7llu %9.1f%% %8llu %8llu %8llu %8llu "
              "%8llu %8.3f",
              skew, budget.name, policy,
              static_cast<unsigned long long>(c.slots), 100.0 * c.hit_rate,
              static_cast<unsigned long long>(c.hot_hits),
              static_cast<unsigned long long>(c.reuse),
              static_cast<unsigned long long>(c.waits),
              static_cast<unsigned long long>(c.loads),
              static_cast<unsigned long long>(c.reads), c.epoch_s);
  if (base != nullptr && base->hit_rate > 0.0 && base->reads > 0) {
    std::printf("  [%4.2fx hit-rate, %+5.1f%% reads, prefetch %llu rd]",
                c.hit_rate / base->hit_rate,
                100.0 * (static_cast<double>(c.reads) /
                             static_cast<double>(base->reads) -
                         1.0),
                static_cast<unsigned long long>(c.prefetch_reads));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_banner(
      "Feature-cache policy A/B (LRU vs hotness vs Belady oracle)",
      "Hit rate, SSD reads and epoch time per policy across access-skew "
      "levels and buffer budgets, plus a trace-driven simulator replay at "
      "the measured slot budget. Belady knows the future: no realizable "
      "policy beats its row.");

  const std::vector<double> skews =
      bench_full_mode() ? std::vector<double>{1.0, 2.5, 3.5}
                        : std::vector<double>{1.0, 2.5};
  // Tight budget: hot_fraction 0.5 of ~12k slots leaves a cold region just
  // above the 1 x Mb reserve; LRU gets the same slot count.
  const std::vector<Budget> budgets = {
      {"default", 0, 1.0, 0.5},
      {"tight", 1, 0.45, 0.5},
  };

  std::printf("%5s %-7s %-9s %7s %10s %8s %8s %8s %8s %8s %8s\n", "skew",
              "budget", "policy", "slots", "hit-rate", "hot/ep", "reuse/ep",
              "wait/ep", "loads/ep", "reads/ep", "epoch(s)");

  for (const double skew : skews) {
    // A private dataset per skew level (get_dataset's registry is keyed by
    // name/dim and fixed at the generator default skew).
    DatasetSpec spec = mini_spec("papers100m");
    spec.skew = skew;
    if (!bench_full_mode()) spec.train_fraction *= 0.25;
    const Dataset dataset = Dataset::build(spec);

    for (const Budget& budget : budgets) {
      const Cell lru = run_cell(dataset, budget, CachePolicy::kLru);
      if (lru.ok) print_cell(skew, budget, "lru", lru, nullptr);
      const Cell hot = run_cell(dataset, budget, CachePolicy::kHotness);
      if (hot.ok) print_cell(skew, budget, "hotness", hot, &lru);
      if (!lru.ok || !hot.ok) continue;

      // Trace-driven comparator at the measured slot budget: the same
      // epoch-0 access sequence through all three simulators.
      Env env = make_env(dataset);
      GnnDriveConfig cfg;
      cfg.common = common_config(ModelKind::kSage);
      const AccessTrace trace = record_access_trace(
          dataset, *env.cache, cfg.common.sampler, cfg.common.batch_seeds,
          cfg.common.run_seed, /*epoch=*/0);
      const CachePolicyConfig cache_defaults;
      const PresampleResult prof = presample_hot_set(
          dataset, *env.cache, cfg.common.sampler, cfg.common.batch_seeds,
          cfg.common.run_seed, cache_defaults.presample_batches,
          hot.hot_slots);
      const CacheSimResult s_lru = simulate_lru(trace, lru.slots);
      const CacheSimResult s_hot =
          simulate_hotness(trace, hot.slots, prof.hot_nodes);
      const CacheSimResult s_opt = simulate_belady(trace, lru.slots);
      std::printf("%5.2f %-7s sim@%llu slots: lru=%.1f%% hotness=%.1f%% "
                  "belady=%.1f%% (oracle upper bound, %llu lookups)\n",
                  skew, budget.name,
                  static_cast<unsigned long long>(lru.slots),
                  100.0 * s_lru.hit_rate(), 100.0 * s_hot.hit_rate(),
                  100.0 * s_opt.hit_rate(),
                  static_cast<unsigned long long>(s_opt.lookups));

      const double ratio =
          lru.hit_rate > 0.0 ? hot.hit_rate / lru.hit_rate : 0.0;
      std::printf("%5.2f %-7s summary: hotness/lru hit-rate %4.2fx, reads "
                  "%llu -> %llu%s\n\n",
                  skew, budget.name, ratio,
                  static_cast<unsigned long long>(lru.reads),
                  static_cast<unsigned long long>(hot.reads),
                  ratio >= 1.5 ? "  [>=1.5x target met]" : "");
    }
  }
  std::printf("CACHE_POLICY_AB_DONE\n");
  return 0;
}
