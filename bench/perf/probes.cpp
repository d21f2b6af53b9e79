// Substrate probes: host software cost of each substrate call, measured
// from outside on devices of the ledger's own, so modeled device time and
// host time can be told apart.
//
//   ssd.model_err_pct     depth-1 reads of 4 KiB, 24 KiB and 1 MiB on the
//                         workload's SsdConfig, measured against
//                         SsdDevice::service_time(): the instrument's error
//   ssd.submit_ns         SsdDevice::submit on a zero-latency device
//   aio.submit_ns_per_sqe IoRing prep_read + submit, zero-latency device
//   aio.reap_ns_per_cqe   IoRing peek_cqe of completed requests
//   pagecache.hit_ns      PageCache::read of a resident page
#include "ledger.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perf {

namespace {

double ns_since(TimePoint t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

SsdConfig zero_latency_ssd() {
  SsdConfig c;
  c.read_latency_us = 0.0;
  c.write_latency_us = 0.0;
  c.bandwidth_mb_s = 1e9;
  c.channels = 16;
  c.time_scale = 1.0;
  return c;
}

double model_error_pct(const Workload& w, const Rig& rig) {
  SsdDevice ssd(w.ssd, rig.dataset->image());
  const std::uint64_t base = rig.dataset->layout().features_offset;
  std::vector<std::uint8_t> buf(1u << 20);
  const std::pair<std::uint32_t, int> sizes[] = {
      {4096, 200}, {24 * 1024, 200}, {1u << 20, 24}};
  double err = 0.0;
  for (const auto& [len, reps] : sizes) {
    const double modeled =
        to_seconds(ssd.service_time(SsdDevice::Op::kRead, len)) * 1e9;
    std::vector<double> measured;
    for (int i = 0; i < reps; ++i) {
      const TimePoint t = Clock::now();
      ssd.read_sync(base + static_cast<std::uint64_t>(i % 64) * len, len,
                    buf.data());
      measured.push_back(ns_since(t));
    }
    err += 100.0 * (percentile(measured, 0.5) / modeled - 1.0) / 3.0;
  }
  return err;
}

double ssd_submit_ns(const Rig& rig) {
  SsdDevice ssd(zero_latency_ssd(), rig.dataset->image());
  std::vector<std::uint8_t> buf(kSectorSize);
  constexpr int kReads = 20000;
  const TimePoint t = Clock::now();
  for (int i = 0; i < kReads; ++i) {
    ssd.submit(SsdDevice::Op::kRead, 0, kSectorSize, buf.data(),
               [](std::int32_t) {});
  }
  const double ns = ns_since(t) / kReads;
  ssd.drain();
  return ns;
}

std::pair<double, double> ring_ns(const Rig& rig) {
  SsdDevice ssd(zero_latency_ssd(), rig.dataset->image());
  IoRingConfig rc;
  rc.queue_depth = 64;
  rc.direct = true;
  IoRing ring(ssd, rc);
  std::vector<std::uint8_t> buf(64 * kSectorSize);
  constexpr int kRounds = 200;
  double submit_ns = 0.0;
  double reap_ns = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    TimePoint t = Clock::now();
    for (unsigned i = 0; i < rc.queue_depth; ++i) {
      ring.prep_read(static_cast<std::uint64_t>(i) * kSectorSize, kSectorSize,
                     buf.data() + i * kSectorSize, i);
    }
    ring.submit();
    submit_ns += ns_since(t);
    // drain() returns after the completions ran, so every CQE is queued.
    ssd.drain();
    t = Clock::now();
    while (ring.peek_cqe().has_value()) {
    }
    reap_ns += ns_since(t);
  }
  const double n = static_cast<double>(kRounds) * rc.queue_depth;
  return {submit_ns / n, reap_ns / n};
}

double pagecache_hit_ns(const Rig& rig) {
  SsdDevice ssd(zero_latency_ssd(), rig.dataset->image());
  HostMemory mem(64ull << 20);
  PageCache cache(mem, ssd);
  constexpr std::uint64_t kPages = 256;
  const std::uint64_t base = rig.dataset->layout().indices_offset;
  cache.prefetch(base, kPages * kPageSize);
  Rng rng(7);
  std::vector<std::uint64_t> offsets(4096);
  for (auto& off : offsets) {
    off = base + rng.next_below(kPages * kPageSize / 8) * 8;
  }
  constexpr int kReads = 200000;
  const TimePoint t = Clock::now();
  for (int i = 0; i < kReads; ++i) {
    std::int64_t v;
    cache.read(offsets[i % offsets.size()], sizeof(v), &v);
  }
  return ns_since(t) / kReads;
}

}  // namespace

Metrics run_substrate_probes(const Workload& w, const Rig& rig) {
  Metrics m;
  m["ssd.model_err_pct"] = model_error_pct(w, rig);
  m["ssd.submit_ns"] = ssd_submit_ns(rig);
  const auto [submit, reap] = ring_ns(rig);
  m["aio.submit_ns_per_sqe"] = submit;
  m["aio.reap_ns_per_cqe"] = reap;
  m["pagecache.hit_ns"] = pagecache_hit_ns(rig);
  return m;
}

}  // namespace perf
