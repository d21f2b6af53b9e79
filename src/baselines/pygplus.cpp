#include "baselines/pygplus.hpp"

#include <atomic>

#include "core/stage.hpp"
#include "memsim/mmap_region.hpp"
#include "sampling/topology.hpp"

namespace gnndrive {

PygPlus::PygPlus(const RunContext& ctx, PygPlusConfig config)
    : ctx_(ctx), config_(std::move(config)),
      sampler_(config_.common.sampler) {
  metadata_pin_ = PinnedBytes(*ctx_.host_mem,
                              ctx_.dataset->host_metadata_bytes(),
                              "pygplus-meta");
  trainer_ = std::make_unique<GpuTrainer>(ctx_, config_.common, config_.gpu);
}

EpochStats PygPlus::run_epoch(std::uint64_t epoch) {
  const Dataset& ds = *ctx_.dataset;
  const auto batches = make_minibatches(
      ds.train_nodes(), config_.common.batch_seeds,
      splitmix64(config_.common.run_seed ^ (epoch + 1)));
  const std::size_t n_batches = batches.size();

  struct Ready {
    SampledBatch batch;
    Tensor x0;
    PinnedBytes pin;  ///< transient host tensor accounting
  };
  StageGroup group;
  auto& ready_q = group.link<Ready>("ready_q", config_.prefetch_cap);
  std::atomic<std::size_t> next_batch{0};
  EpochStats stats;
  stats.batches = n_batches;

  // Each worker samples a batch, then extracts its features on the same
  // thread: the extraction is timed by a stage of its own.
  Stage& extract = group.stage(kSpanExtract, 0, nullptr);
  Stage& sample = group.stage(kSpanSample, config_.num_workers,
      [&](Stage& self, std::uint32_t) {
        MmapTopology topo(ds, *ctx_.page_cache);
        MmapRegion features(*ctx_.page_cache, ds.layout().features_offset,
                            ds.layout().features_bytes);
        const std::uint32_t dim = ds.spec().feature_dim;
        for (;;) {
          const std::size_t b = next_batch.fetch_add(1);
          if (b >= n_batches) break;
          const std::uint64_t id = ((epoch + 1) << 24) | b;
          SampledBatch batch = self.time(id, [&] {
            BusyScope busy(ctx_.telemetry);
            return sampler_.sample(id, batches[b], topo, &ds.labels());
          });
          if (config_.common.sample_only) continue;

          // Synchronous feature extraction through the page cache: every
          // node row is a potential page fault blocking this worker.
          Ready ready = extract.time(id, [&] {
            Ready r;
            r.x0.resize(static_cast<std::uint32_t>(batch.num_nodes()), dim);
            r.pin = PinnedBytes(*ctx_.host_mem, r.x0.bytes(),
                                "pygplus-batch-tensor");
            for (std::uint32_t i = 0; i < batch.num_nodes(); ++i) {
              // feature_row_of routes through the installed layout plan so
              // the mmap path reads a packed store correctly too.
              features.read_bytes(
                  ds.layout().feature_row_of(batch.nodes[i]) *
                      ds.layout().feature_row_bytes,
                  ds.layout().feature_row_bytes, r.x0.row(i));
            }
            return r;
          });
          ready.batch = std::move(batch);
          if (!ready_q.push(std::move(ready))) break;
        }
      },
      {&ready_q});

  // Training thread: synchronous transfer + train.
  Stage& train = group.stage(kSpanTrain, config_.common.sample_only ? 0 : 1,
      [&](Stage& self, std::uint32_t) {
        ready_q.each([&](Ready& ready) {
          const TrainStats tr = self.time(ready.batch.batch_id, [&] {
            return trainer_->step(ready.batch, ready.x0);
          });
          stats.loss += tr.loss;
          stats.train_accuracy +=
              tr.total > 0 ? static_cast<double>(tr.correct) /
                                 static_cast<double>(tr.total)
                           : 0.0;
        });
      });

  const TimePoint t0 = Clock::now();
  group.run();
  stats.epoch_seconds = to_seconds(Clock::now() - t0);
  stats.sample_seconds = sample.seconds();
  stats.extract_seconds = extract.seconds();
  stats.train_seconds = train.seconds();
  if (n_batches > 0) {
    stats.loss /= static_cast<double>(n_batches);
    stats.train_accuracy /= static_cast<double>(n_batches);
  }
  return stats;
}

double PygPlus::evaluate() {
  return evaluate_accuracy(trainer_->model(), *ctx_.dataset,
                           config_.common.sampler);
}

}  // namespace gnndrive
