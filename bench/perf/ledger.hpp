// Perf ledger: the repository's end-to-end + per-layer benchmark.
//
// One workload runs per process (see perf_ledger.cpp for the CLI). A timed
// run builds the workload's rig several times (setup_s), then drives
// GnnDrive::run_epoch / ServeEngine::submit through the public API with
// span tracing off and reports the end-to-end metrics. A traced run sets up
// once, alternates traced and untraced epochs (tracing overhead), reads the
// per-layer counts, serially replays the workload's batches through each
// layer's public functions with spans owned by this benchmark, and probes
// the substrates' host-side costs from outside.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "layout/compiler.hpp"
#include "serve/engine.hpp"

namespace perf {

using namespace gnndrive;

/// Everything one workload runs with. workloads.cpp spells out every field;
/// nothing is inherited from library defaults that other changes may edit.
struct Workload {
  std::string name;
  std::string why;
  DatasetSpec dataset;   ///< a fixed input, like the paper's datasets
  SsdConfig ssd;
  double host_paper_gb = 0.0;
  /// `common.run_seed` comes from --seed. With the hotness cache policy,
  /// setup also compiles a hotness-packed feature layout (else identity).
  GnnDriveConfig train;
  HotnessProfileConfig layout_profile;
  ServeConfig serve;
  /// With a positive rate, an open-loop stream at `serve_rate_rps` runs
  /// while epochs run back-to-back (the measured window). Otherwise one
  /// closed-loop client per serve worker sends the requests with the
  /// trainer idle.
  double serve_rate_rps = 0.0;
  /// Batches per replay pass in the traced run (one warm-up pass, then one
  /// recorded pass over the next epoch's first batches).
  std::uint32_t replay_batches = 0;
};

const std::vector<Workload>& workloads();
/// The workload with its run seed applied; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

struct MetricDef {
  const char* name;
  const char* unit;
  const char* layer;  ///< repository module, or "end_to_end"
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

using Metrics = std::map<std::string, double>;

/// One environment + system, built by setup().
struct Rig {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<Telemetry> telemetry;
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<HostMemory> mem;
  std::unique_ptr<PageCache> cache;
  RunContext ctx;
  std::unique_ptr<GnnDrive> system;
  std::unique_ptr<ServeEngine> serve;  ///< train-and-serve workloads only

  // Setup cost breakdown.
  double layout_plan_s = 0.0;
  double layout_compile_s = 0.0;
  std::uint64_t layout_bytes_moved = 0;
  double cache_warm_s = 0.0;
  std::uint64_t cache_prefetch_reads = 0;
};

/// What the layer replay measured.
struct ReplayReport {
  /// Per-batch self time of each layer span (sampler.sample_ms,
  /// extract.*_ms, trainer.*_ms, fb.*_us), replay.unattributed_pct and the
  /// planner's extract.read_amplification and extract.plan_ns_per_row.
  Metrics metrics;
  double mean_read_bytes = 0.0;  ///< mean planned feature read
  std::vector<std::string> failures;
};

/// Serially re-drives `w`'s batches through each layer on the ledger's own
/// FeatureBuffer / IoRing / GpuDevice / GnnModel, sized like rig.system.
/// Writes the spans as Chrome JSON to `trace_out` when it is non-empty.
ReplayReport run_layer_replay(const Workload& w, Rig& rig,
                              const std::string& trace_out);

/// Host-cost and instrument probes on devices of the ledger's own:
/// ssd.model_err_pct, ssd.submit_ns, aio.submit_ns_per_sqe,
/// aio.reap_ns_per_cqe and pagecache.hit_ns.
Metrics run_substrate_probes(const Workload& w, const Rig& rig);

double seconds_since(TimePoint t0);

}  // namespace perf
