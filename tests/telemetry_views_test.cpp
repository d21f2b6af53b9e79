// One store, many views: with training and serving running concurrently on
// one Telemetry, every per-instance report (FeatureBufferStats per client,
// ServeReport, EpochObs, PageCacheStats, SsdStats) must equal the diff of
// the registry instruments behind it over the same window, and no registry
// counter may ever move backwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"

namespace gnndrive {
namespace {

std::uint64_t counter_of(const MetricsRegistry::Snapshot& s,
                         const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

std::uint64_t hist_count_of(const MetricsRegistry::Snapshot& s,
                            const std::string& name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return h.count();
  }
  return 0;
}

TEST(TelemetryViews, EveryReportIsARegistryDiff) {
  const Dataset dataset = Dataset::build(toy_spec(128));
  SsdConfig ssd_cfg;
  ssd_cfg.read_latency_us = 20.0;
  auto ssd = dataset.make_device(ssd_cfg);
  HostMemory mem(64ull << 20);
  Telemetry telemetry;
  ssd->set_telemetry(&telemetry);
  PageCache cache(mem, *ssd, &telemetry);
  const RunContext ctx{&dataset, ssd.get(), &mem, &cache, &telemetry};
  const MetricsRegistry& reg = *telemetry.metrics();

  GnnDriveConfig cfg;
  cfg.common.model.kind = ModelKind::kSage;
  cfg.common.model.hidden_dim = 16;
  cfg.common.sampler.fanouts = {10, 10};
  cfg.common.batch_seeds = 64;
  cfg.cache.policy = CachePolicy::kHotness;  // hot hits on both clients
  // A small hot set leaves most rows to load, so serving meets training
  // loads it can take over.
  cfg.cache.hot_fraction = 0.02;
  GnnDrive system(ctx, cfg);

  ServeConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 512;
  scfg.max_batch = 8;
  scfg.slo.deadline_ms = 0.0;
  ServeEngine engine(ctx, scfg, system);  // pins the hot set

  // Watch every counter while the window runs: none may ever decrease.
  std::atomic<bool> done{false};
  std::vector<std::string> decreased;
  std::thread watcher([&] {
    std::map<std::string, std::uint64_t> last;
    while (!done.load()) {
      for (const auto& [name, v] : reg.snapshot().counters) {
        auto [it, fresh] = last.emplace(name, v);
        if (!fresh && v < it->second) decreased.push_back(name);
        it->second = v;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const FeatureBuffer& fb = system.feature_buffer();
  const MetricsRegistry::Snapshot before = reg.snapshot();
  const FeatureBufferStats train0 = fb.stats(FbClient::kTrain);
  const FeatureBufferStats serve0 = fb.stats(FbClient::kServe);
  const PageCacheStats pc0 = cache.stats();
  const SsdStats ssd0 = ssd->stats();

  engine.start();
  std::vector<EpochStats> epochs(2);
  std::thread trainer([&] {
    for (std::uint64_t e = 0; e < epochs.size(); ++e) {
      epochs[e] = system.run_epoch(e);
    }
  });
  std::vector<std::future<InferResult>> futs;
  const NodeId n = dataset.spec().num_nodes;
  for (std::uint32_t i = 0; i < 200; ++i) {
    futs.push_back(engine.submit((i * 7919u) % n));
    if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trainer.join();
  for (auto& f : futs) f.get();
  engine.stop();

  const MetricsRegistry::Snapshot after = reg.snapshot();
  done.store(true);
  watcher.join();
  EXPECT_TRUE(decreased.empty()) << "counter decreased: " << decreased[0];

  const auto delta = [&](const std::string& name) {
    return counter_of(after, name) - counter_of(before, name);
  };
  const auto hist_delta = [&](const std::string& name) {
    return hist_count_of(after, name) - hist_count_of(before, name);
  };

  // Feature buffer, per client.
  const auto expect_fb = [&](const char* client, const FeatureBufferStats& a,
                             const FeatureBufferStats& b) {
    const std::string p = std::string("fb.") + client + ".";
    EXPECT_EQ(a.hot_hits - b.hot_hits, delta(p + "hot_hits")) << client;
    EXPECT_EQ(a.reuse_hits - b.reuse_hits, delta(p + "reuse_hits")) << client;
    EXPECT_EQ(a.wait_hits - b.wait_hits, delta(p + "wait_hits")) << client;
    EXPECT_EQ(a.loads - b.loads, delta(p + "loads")) << client;
    EXPECT_GT(a.lookups() - b.lookups(), 0u) << client;
    EXPECT_GT(a.hot_hits - b.hot_hits, 0u) << client;
  };
  expect_fb("train", fb.stats(FbClient::kTrain), train0);
  expect_fb("serve", fb.stats(FbClient::kServe), serve0);
  // Reads deliver every load once: a training load that serving took over
  // is read by serving, so rows read = training loads + serve loads -
  // take-overs (docs/observability.md).
  EXPECT_EQ(delta("io.coalesce.rows"), delta("fb.train.loads") +
                                           delta("fb.serve.loads") -
                                           delta("fb.serve.takeovers"));

  // Serving report.
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.submitted, delta("serve.submitted"));
  EXPECT_EQ(rep.rejected, delta("serve.rejected"));
  EXPECT_EQ(rep.completed, delta("serve.completed"));
  EXPECT_EQ(rep.failed, delta("serve.failed"));
  EXPECT_EQ(rep.shed_deadline, delta("serve.shed_deadline"));
  EXPECT_EQ(rep.io_errors, delta("serve.io_errors"));
  EXPECT_EQ(rep.io_retries, delta("serve.io_retries"));
  EXPECT_EQ(rep.latency.count, hist_delta("serve.latency.us"));
  EXPECT_EQ(rep.queue_wait.count, hist_delta("serve.queue_wait.us"));
  EXPECT_EQ(rep.extract.count, hist_delta("serve.extract.us"));
  EXPECT_EQ(rep.infer.count, hist_delta("serve.infer.us"));
  EXPECT_EQ(rep.batches, hist_delta("serve.batch.size"));
  EXPECT_EQ(rep.submitted, 200u);
  EXPECT_EQ(rep.completed + rep.rejected, 200u);

  // Epoch reports: the two epochs' stage rows add up to the window.
  std::uint64_t sample = 0, extract = 0, train = 0, release = 0;
  for (const EpochStats& s : epochs) {
    EXPECT_TRUE(s.result.ok());
    sample += s.obs.sample.count;
    extract += s.obs.extract.count;
    train += s.obs.train.count;
    release += s.obs.release.count;
  }
  EXPECT_EQ(sample, hist_delta("stage.sample.us"));
  EXPECT_EQ(extract, hist_delta("stage.extract.us"));
  EXPECT_EQ(train, hist_delta("stage.train.us"));
  EXPECT_EQ(release, hist_delta("stage.release.us"));
  EXPECT_EQ(train, epochs[0].batches + epochs[1].batches);

  // Page cache and device.
  const PageCacheStats pc1 = cache.stats();
  EXPECT_EQ(pc1.hits - pc0.hits, delta("pagecache.hits"));
  EXPECT_EQ(pc1.misses - pc0.misses, delta("pagecache.misses"));
  EXPECT_EQ(pc1.evictions - pc0.evictions, delta("pagecache.evictions"));
  EXPECT_GT(pc1.hits - pc0.hits, 0u);
  const SsdStats ssd1 = ssd->stats();
  EXPECT_EQ(ssd1.reads - ssd0.reads, delta("ssd.reads"));
  EXPECT_EQ(ssd1.bytes_read - ssd0.bytes_read, delta("ssd.bytes_read"));
  EXPECT_GT(ssd1.reads - ssd0.reads, 0u);
  // Per arbitration class: training extraction is throughput-class, page
  // faults and serve reads latency-class, and together they are every read.
  std::uint64_t class_reads = 0;
  for (const IoClass c : {IoClass::kThroughput, IoClass::kLatency}) {
    const std::string p = std::string("ssd.") + io_class_name(c) + ".";
    const std::uint64_t reads = ssd1.of(c).reads - ssd0.of(c).reads;
    EXPECT_EQ(reads, delta(p + "reads")) << p;
    EXPECT_GT(reads, 0u) << p;
    class_reads += reads;
    // The registry holds whole microseconds of the same running sum.
    EXPECT_NEAR(
        (ssd1.of(c).queue_wait_seconds - ssd0.of(c).queue_wait_seconds) * 1e6,
        static_cast<double>(delta(p + "queue_wait_us")), 1.0)
        << p;
  }
  EXPECT_EQ(class_reads, delta("ssd.reads"));
}

}  // namespace
}  // namespace gnndrive
