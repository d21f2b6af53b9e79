// Layer replay: one thread re-drives a workload's batches through each
// layer's public entry point, with spans owned by the benchmark.
//
//   make_minibatches -> NeighborSampler::sample -> triage_batch ->
//   plan_segments -> extract_load_set -> resolve_wait_list ->
//   gather + GnnModel::train_batch -> Adam::step -> FeatureBuffer::release
//
// The replay's FeatureBuffer, IoRing, GpuDevice and GnnModel are its own,
// sized like the workload's GnnDrive (same slot count and hot set, one
// extractor's staging and ring), over the workload's SSD and page cache.
// Its staging buffer is not pinned: it stands in for one of the extractors
// whose staging the GnnDrive instance already pinned, so the page cache
// keeps the capacity the workload gives it.
//
// A first pass over one epoch's batches warms the buffer (and checks the
// extracted features byte for byte against the dataset); the second pass,
// over the next epoch's batches, is recorded. Each span stores {name,
// start, end, parent, batch}; a layer's self time is its span minus its
// children, and replay.unattributed_pct = 1 - sum(layer self) / wall.
#include <algorithm>
#include <cstring>

#include "cache/policy.hpp"
#include "ledger.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perf {

namespace {

/// Epoch ids for the replay's two passes, far from the pipeline's.
constexpr std::uint64_t kReplayEpoch = 1000;

struct Span {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  int parent;  ///< index into the log; -1 for the root
  std::uint64_t batch;
};

class SpanLog {
 public:
  int open(const char* name, int parent, std::uint64_t batch) {
    spans_.push_back({name, now_ns(), 0, parent, batch});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) { spans_[span].end_ns = now_ns(); }
  /// A child assembled from a duration the layer accumulated itself.
  void add(const char* name, std::uint64_t begin_ns, std::uint64_t dur_ns,
           int parent, std::uint64_t batch) {
    spans_.push_back({name, begin_ns, begin_ns + dur_ns, parent, batch});
  }
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its children cover (children of one
  /// span never overlap: the replay is serial).
  std::vector<std::uint64_t> self_ns() const {
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].begin_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.begin_ns;
    }
    return self;
  }

  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"batch\": %llu, \"span\": %zu, \"parent\": %d}}",
                   i > 0 ? ",\n" : "", s.name,
                   static_cast<double>(s.begin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                   static_cast<unsigned long long>(s.batch), i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  TimePoint t0_ = Clock::now();
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name, int parent, std::uint64_t batch)
      : log_(log), span_(log.open(name, parent, batch)) {}
  ~Scope() { log_.close(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int span_;
};

/// Layer span -> reported metric (per-batch mean self time) and its unit
/// scale from nanoseconds. The extract host time is the self time of the
/// planner, the extraction loop and the wait-list resolution together.
struct LayerMetric {
  const char* span;
  const char* metric;
  double ns_per_unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sampler.sample", "sampler.sample_ms", 1e6},
    {"fb.triage", "fb.triage_us", 1e3},
    {"extract.plan", "extract.host_ms", 1e6},
    {"extract.load_set", "extract.host_ms", 1e6},
    {"extract.wait_list", "extract.host_ms", 1e6},
    {"extract.submit", "extract.submit_ms", 1e6},
    {"extract.ssd_wait", "extract.ssd_wait_ms", 1e6},
    {"extract.copy_wait", "extract.copy_wait_ms", 1e6},
    {"trainer.gather", "trainer.gather_ms", 1e6},
    {"trainer.fwd_bwd", "trainer.fwd_bwd_ms", 1e6},
    {"trainer.adam", "trainer.adam_ms", 1e6},
    {"fb.release", "fb.release_us", 1e3},
};

}  // namespace

ReplayReport run_layer_replay(const Workload& w, Rig& rig,
                              const std::string& trace_out) {
  const Dataset& ds = *rig.dataset;
  GnnDrive& system = *rig.system;
  const GnnDriveConfig& cfg = system.config();
  const OnDiskLayout& lay = ds.layout();
  const std::uint32_t dim = ds.spec().feature_dim;
  const auto row_bytes = static_cast<std::uint32_t>(lay.feature_row_bytes);
  const auto covering = static_cast<std::uint32_t>(
      round_up(row_bytes, kSectorSize) +
      (row_bytes % kSectorSize == 0 ? 0 : kSectorSize));
  const std::uint32_t staging_row_bytes =
      staging_row_bytes_for(cfg.coalesce, covering);
  const std::uint32_t staging_rows =
      staging_rows_for(cfg.coalesce, cfg.ring_depth);
  const std::uint32_t max_rows =
      cfg.coalesce.enabled ? cfg.coalesce.max_rows_per_read : 1;
  const std::uint32_t max_gap =
      cfg.coalesce.enabled ? cfg.coalesce.max_gap_bytes : 0;

  FeatureBuffer fb(
      FeatureBufferConfig{system.feature_buffer().num_slots(), dim},
      ds.spec().num_nodes);
  if (!system.hot_nodes().empty()) {
    prefetch_hot_rows(fb, system.hot_nodes(), ds, *rig.ssd, cfg.coalesce);
  }
  GpuDevice gpu(cfg.gpu);
  IoRingConfig rc;
  rc.queue_depth = cfg.ring_depth;
  rc.direct = cfg.direct_io;
  rc.max_transfer_bytes = staging_row_bytes;
  IoRing ring(*rig.ssd, rc);
  std::vector<std::uint8_t> staging(static_cast<std::size_t>(staging_rows) *
                                    staging_row_bytes);
  GnnModel model(cfg.common.model);
  model.copy_params_from(system.model());
  Adam adam(cfg.common.adam);
  NeighborSampler sampler(cfg.common.sampler);
  MmapTopology topo(ds, *rig.cache);

  const ExtractEnv env{&fb,   &lay,         row_bytes,
                       &ring, staging.data(), staging_row_bytes,
                       staging_rows, &gpu,   nullptr};
  ExtractPolicy policy;
  policy.coalesce = cfg.coalesce;
  policy.max_retries = cfg.fault.max_retries;
  policy.request_timeout = from_us(cfg.fault.request_timeout_ms * 1e3);
  policy.poll = std::max(from_us(cfg.fault.request_timeout_ms * 1e3 / 4),
                         from_us(500.0));
  const Duration wait_timeout = from_us(cfg.fault.wait_list_timeout_ms * 1e3);

  ReplayReport rep;
  SpanLog warm_log;
  SpanLog log;
  std::uint64_t segments = 0;
  std::uint64_t segment_bytes = 0;
  std::uint64_t planned_rows = 0;
  std::uint64_t batches_done = 0;
  int root = -1;
  for (int pass = 0; pass < 2; ++pass) {
    const bool recorded = pass == 1;
    SpanLog& sl = recorded ? log : warm_log;
    const std::uint64_t epoch = kReplayEpoch + static_cast<std::uint64_t>(pass);
    const auto batches =
        make_minibatches(ds.train_nodes(), cfg.common.batch_seeds,
                         splitmix64(cfg.common.run_seed ^ (epoch + 1)));
    const std::size_t n =
        std::min<std::size_t>(batches.size(), w.replay_batches);
    if (recorded) root = sl.open("replay", -1, 0);
    for (std::size_t b = 0; b < n; ++b) {
      const std::uint64_t id = ((epoch + 1) << 24) | b;
      const int parent = sl.open("batch", root, id);
      SampledBatch batch;
      {
        Scope s(sl, "sampler.sample", parent, id);
        batch = sampler.sample(id, batches[b], topo, &ds.labels());
      }
      std::vector<std::uint32_t> wait_idx;
      std::vector<std::uint32_t> load_idx;
      {
        Scope s(sl, "fb.triage", parent, id);
        triage_batch(fb, batch, wait_idx, load_idx);
      }
      SegmentPlan plan;
      {
        Scope s(sl, "extract.plan", parent, id);
        plan = plan_segments(load_idx, batch.nodes, lay, row_bytes,
                             staging_row_bytes, max_rows, max_gap);
      }
      ExtractTrace tr;
      tr.tracing = true;
      ExtractCounters counters;
      const int load_span = sl.open("extract.load_set", parent, id);
      bool ok = extract_load_set(batch, load_idx, env, policy,
                                 ExtractMetricHooks{}, counters, &tr);
      sl.close(load_span);
      // The loop interleaves its phases; their accumulated durations are
      // laid back to back inside the load_set span.
      std::uint64_t at = sl.spans()[load_span].begin_ns;
      for (const auto& [name, ns] :
           {std::pair{"extract.submit", tr.submit_ns},
            std::pair{"extract.ssd_wait", tr.ssd_wait_ns},
            std::pair{"extract.copy_wait", tr.copy_wait_ns}}) {
        sl.add(name, at, ns, load_span, id);
        at += ns;
      }
      {
        Scope s(sl, "extract.wait_list", parent, id);
        ok = ok && resolve_wait_list(fb, batch, wait_idx, wait_timeout);
      }
      if (!ok) {
        rep.failures.push_back("replay: extraction failed for batch " +
                               std::to_string(b));
        fb.release(batch.nodes);
        sl.close(parent);
        continue;
      }
      Tensor x0;
      {
        Scope s(sl, "trainer.gather", parent, id);
        x0 = Tensor(static_cast<std::uint32_t>(batch.num_nodes()), dim);
        for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
          std::memcpy(x0.row(i), fb.slot_data(batch.alias[i]), dim * 4);
        }
      }
      {
        Scope s(sl, "trainer.fwd_bwd", parent, id);
        gpu.launch([&] { model.train_batch(batch, x0); });
      }
      {
        Scope s(sl, "trainer.adam", parent, id);
        adam.step(model.params());
        adam.zero_grad(model.params());
      }
      {
        Scope s(sl, "fb.release", parent, id);
        fb.release(batch.nodes);
      }
      sl.close(parent);

      if (!recorded) {
        // Byte-exact extraction: every gathered row equals the dataset's.
        std::vector<float> truth(dim);
        for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
          ds.read_feature_row(batch.nodes[i], truth.data());
          if (std::memcmp(truth.data(), x0.row(i), dim * 4) != 0) {
            rep.failures.push_back("replay: wrong features for node " +
                                   std::to_string(batch.nodes[i]));
            break;
          }
        }
        continue;
      }
      ++batches_done;
      segments += plan.segments.size();
      planned_rows += plan.rows.size();
      for (const SegmentPlan::Segment& seg : plan.segments) {
        segment_bytes += seg.len;
      }
    }
    if (recorded) sl.close(root);
  }

  for (NodeId v = 0; v < ds.spec().num_nodes; ++v) {
    if (fb.entry(v).ref_count != 0) {
      rep.failures.push_back("replay: leaked feature-buffer reference");
      break;
    }
  }

  const std::vector<Span>& spans = log.spans();
  const std::vector<std::uint64_t> self = log.self_ns();
  const auto batches =
      static_cast<double>(std::max<std::uint64_t>(batches_done, 1));
  std::uint64_t attributed_ns = 0;
  std::uint64_t plan_ns = 0;
  for (const LayerMetric& lm : kLayerMetrics) rep.metrics[lm.metric] = 0.0;
  std::vector<double> sample_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (const LayerMetric& lm : kLayerMetrics) {
      if (std::strcmp(spans[i].name, lm.span) != 0) continue;
      rep.metrics[lm.metric] +=
          static_cast<double>(self[i]) / lm.ns_per_unit / batches;
      attributed_ns += self[i];
      if (std::strcmp(lm.span, "sampler.sample") == 0) {
        sample_ms.push_back(static_cast<double>(self[i]) / 1e6);
      } else if (std::strcmp(lm.span, "extract.plan") == 0) {
        plan_ns += self[i];
      }
    }
  }
  const double wall_ns =
      root >= 0 ? static_cast<double>(spans[root].end_ns - spans[root].begin_ns)
                : 0.0;
  rep.metrics["sampler.sample_p50_ms"] = percentile(sample_ms, 0.5);
  rep.metrics["replay.unattributed_pct"] =
      wall_ns > 0 ? 100.0 * (1.0 - static_cast<double>(attributed_ns) / wall_ns)
                  : 0.0;
  rep.metrics["extract.read_amplification"] =
      planned_rows > 0 ? static_cast<double>(segment_bytes) /
                             static_cast<double>(planned_rows * row_bytes)
                       : 0.0;
  rep.metrics["extract.plan_ns_per_row"] =
      planned_rows > 0 ? static_cast<double>(plan_ns) /
                             static_cast<double>(planned_rows)
                       : 0.0;
  rep.mean_read_bytes =
      segments > 0 ? static_cast<double>(segment_bytes) /
                         static_cast<double>(segments)
                   : 0.0;
  if (!trace_out.empty() && !log.write_chrome_json(trace_out)) {
    rep.failures.push_back("cannot write " + trace_out);
  }
  return rep;
}

}  // namespace perf
