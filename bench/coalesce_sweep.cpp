// Coalesced-extraction A/B sweep: SSD read requests, rows per read and
// extract latency for coalesce=off (one read per to-load node, the paper's
// I/O shape) vs coalesce=on across max_coalesce_bytes, batch sizes and
// feature dimensions.
//
// Under the simulated device's cost model (service = base_latency +
// len/(bandwidth/channels)) a 512 B feature row pays ~80 us of fixed cost
// for ~4 us of data movement, so the requests/epoch column is the one to
// watch. Request reduction tracks the to-load density: at the default
// mini-batch the sorted misses sit tens of KiB apart and only a fraction
// of gaps are worth bridging, while at 4x the batch the runs get dense and
// the same caps merge several rows per read. Gap tolerance follows the
// caps at cap/2; the break-even gap for the default device is ~10 KiB
// (base_latency * bandwidth / channels).
#include "bench/bench_common.hpp"

using namespace gnndrive;
using namespace gnndrive::bench;

namespace {

struct Cell {
  bool ok = false;
  unsigned eff = 0;  ///< effective extractor count after auto-sizing
  double epoch_s = 0.0;
  double extract_s = 0.0;
  double extract_p50_us = 0.0;
  double extract_p95_us = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t loads = 0;
  double rows_per_read = 0.0;
};

Cell run_cell(const Dataset& dataset, std::uint32_t batch_seeds,
              const CoalesceConfig& co) {
  Cell cell;
  try {
    Env env = make_env(dataset);
    GnnDriveConfig cfg;
    cfg.common = common_config(ModelKind::kSage);
    cfg.common.batch_seeds = batch_seeds;
    cfg.coalesce = co;
    GnnDrive system(env.ctx, cfg);
    cell.eff = system.effective_extractors();

    system.run_epoch(100);  // warm-up: topology resident, buffer primed
    const auto reads_before = env.ssd->stats().reads;
    const auto loads_before = system.feature_buffer().stats().loads;

    const int epochs = measure_epochs();
    for (int e = 0; e < epochs; ++e) {
      const EpochStats stats = system.run_epoch(e);
      cell.epoch_s += stats.epoch_seconds / epochs;
      cell.extract_s += stats.extract_seconds / epochs;
      cell.extract_p50_us += stats.obs.extract.p50_us / epochs;
      cell.extract_p95_us += stats.obs.extract.p95_us / epochs;
      cell.rows_per_read += stats.obs.rows_per_read() / epochs;
    }
    cell.reads = (env.ssd->stats().reads - reads_before) / epochs;
    cell.loads =
        (system.feature_buffer().stats().loads - loads_before) / epochs;
    cell.ok = true;
  } catch (const SimOutOfMemory& oom) {
    std::printf("  (skipped: %s)\n", oom.what());
  }
  return cell;
}

}  // namespace

int main() {
  print_banner(
      "Coalesced extraction sweep",
      "SSD read requests and extract latency, coalesce=off vs on. Expected "
      "shape: request count drops with max_coalesce_bytes, steeply once the "
      "batch is dense enough for sorted runs to sit within the gap "
      "tolerance; extract time follows the in-flight row depth and the "
      "request count.");

  const bool full = bench_full_mode();
  const std::vector<std::uint32_t> dims =
      full ? std::vector<std::uint32_t>{128, 256}
           : std::vector<std::uint32_t>{128};
  const std::vector<std::uint32_t> batches = {kDefaultBatchSeeds,
                                              4 * kDefaultBatchSeeds};
  const std::vector<std::uint32_t> caps =
      full ? std::vector<std::uint32_t>{8192, 24576, 65536, 131072}
           : std::vector<std::uint32_t>{8192, 24576, 65536};

  std::printf("%-12s %4s %6s %-10s %3s | %8s %9s %9s %7s %9s %10s %10s\n",
              "dataset", "dim", "batch", "coalesce", "Ne", "epoch(s)",
              "reads/ep", "loads/ep", "rows/rd", "extract(s)", "p50(us)",
              "p95(us)");
  for (const std::uint32_t dim : dims) {
    const Dataset& dataset = get_dataset("papers100m", dim);
    for (const std::uint32_t batch_seeds : batches) {
      CoalesceConfig off;
      off.enabled = false;
      const Cell base = run_cell(dataset, batch_seeds, off);
      if (!base.ok) continue;
      std::printf("%-12s %4u %6u %-10s %3u | %8.3f %8llu %9llu %7.2f %9.3f "
                  "%10.1f %10.1f\n",
                  "papers100m", dim, batch_seeds, "off", base.eff,
                  base.epoch_s, static_cast<unsigned long long>(base.reads),
                  static_cast<unsigned long long>(base.loads),
                  base.rows_per_read, base.extract_s, base.extract_p50_us,
                  base.extract_p95_us);
      for (const std::uint32_t cap : caps) {
        CoalesceConfig on;
        on.max_coalesce_bytes = cap;
        on.max_gap_bytes = cap / 2;
        const Cell cell = run_cell(dataset, batch_seeds, on);
        if (!cell.ok) continue;
        std::printf(
            "%-12s %4u %6u %-10s %3u | %8.3f %8llu %9llu %7.2f %9.3f "
            "%10.1f %10.1f  [%4.1fx fewer reads, extract %+5.1f%%]\n",
            "papers100m", dim, batch_seeds,
            ("on/" + std::to_string(cap / 1024) + "K").c_str(), cell.eff,
            cell.epoch_s, static_cast<unsigned long long>(cell.reads),
            static_cast<unsigned long long>(cell.loads), cell.rows_per_read,
            cell.extract_s, cell.extract_p50_us, cell.extract_p95_us,
            cell.reads > 0 ? static_cast<double>(base.reads) /
                                 static_cast<double>(cell.reads)
                           : 0.0,
            base.extract_s > 0.0 ? 100.0 * (cell.extract_s - base.extract_s) /
                                       base.extract_s
                                 : 0.0);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  return 0;
}
