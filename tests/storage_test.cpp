// Simulated SSD: data integrity, service-time model, channel overlap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include "storage/ssd.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

std::shared_ptr<MemBackend> make_image(std::uint64_t size,
                                       std::uint64_t seed = 9) {
  auto backend = std::make_shared<MemBackend>(size);
  Rng rng(seed);
  for (std::uint64_t i = 0; i < size; ++i) {
    backend->raw()[i] = static_cast<std::uint8_t>(rng());
  }
  return backend;
}

SsdConfig fast_cfg() {
  SsdConfig cfg;
  cfg.read_latency_us = 200.0;
  cfg.write_latency_us = 100.0;
  cfg.bandwidth_mb_s = 4000.0;
  cfg.channels = 8;
  return cfg;
}

TEST(Ssd, ReadReturnsBackingBytes) {
  auto image = make_image(64 * 1024);
  SsdDevice ssd(fast_cfg(), image);
  std::uint8_t buf[512];
  ssd.read_sync(1024, 512, buf);
  EXPECT_EQ(std::memcmp(buf, image->raw() + 1024, 512), 0);
}

TEST(Ssd, WriteThenReadRoundTrips) {
  auto image = make_image(64 * 1024);
  SsdDevice ssd(fast_cfg(), image);
  std::uint8_t data[1024];
  for (int i = 0; i < 1024; ++i) data[i] = static_cast<std::uint8_t>(i * 7);
  ssd.write_sync(4096, 1024, data);
  std::uint8_t readback[1024];
  ssd.read_sync(4096, 1024, readback);
  EXPECT_EQ(std::memcmp(data, readback, 1024), 0);
}

TEST(Ssd, SyncReadTakesAtLeastServiceTime) {
  auto image = make_image(1 << 20);
  SsdDevice ssd(fast_cfg(), image);
  std::uint8_t buf[512];
  const TimePoint t0 = Clock::now();
  ssd.read_sync(0, 512, buf);
  const double elapsed = to_seconds(Clock::now() - t0);
  EXPECT_GE(elapsed, 190e-6);  // ~read_latency_us
}

TEST(Ssd, ChannelsOverlapIndependentRequests) {
  // 8 concurrent 512B reads on 8 channels: each finds a free channel, so
  // the modeled schedule starts every one at its submit and none waits in
  // its class queue. On fewer channels the later reads would queue behind
  // the earlier ones' service time.
  auto image = make_image(1 << 20);
  SsdDevice ssd(fast_cfg(), image);
  std::vector<std::uint8_t> bufs(8 * 512);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    ssd.submit(SsdDevice::Op::kRead, i * 4096, 512, bufs.data() + i * 512,
               [&](std::int32_t) { ++done; });
  }
  ssd.drain();
  EXPECT_EQ(done.load(), 8);
  const SsdStats stats = ssd.stats();
  EXPECT_EQ(stats.of(IoClass::kThroughput).reads, 8u);
  EXPECT_EQ(stats.of(IoClass::kThroughput).queue_wait_seconds, 0.0);
}

TEST(Ssd, QueueingBeyondChannelsSerializes) {
  // 32 requests over 8 channels: at least 4 service times.
  auto image = make_image(1 << 20);
  SsdDevice ssd(fast_cfg(), image);
  std::vector<std::uint8_t> bufs(32 * 512);
  const TimePoint t0 = Clock::now();
  for (int i = 0; i < 32; ++i) {
    ssd.submit(SsdDevice::Op::kRead, i * 512, 512, bufs.data() + i * 512,
               nullptr);
  }
  ssd.drain();
  const double elapsed = to_seconds(Clock::now() - t0);
  EXPECT_GE(elapsed, 4 * 200e-6 * 0.9);
}

TEST(Ssd, StatsCountRequestsAndBytes) {
  auto image = make_image(1 << 20);
  SsdDevice ssd(fast_cfg(), image);
  std::uint8_t buf[2048];
  ssd.read_sync(0, 2048, buf);
  ssd.write_sync(0, 512, buf);
  const SsdStats stats = ssd.stats();
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.bytes_read, 2048u);
  EXPECT_EQ(stats.bytes_written, 512u);
  EXPECT_GT(stats.busy_seconds, 0.0);
  // Monotonic: a window's traffic is the diff of two stats() reads.
  ssd.read_sync(0, 512, buf);
  EXPECT_EQ(ssd.stats().reads - stats.reads, 1u);
}

TEST(Ssd, ServiceTimeScalesWithLength) {
  auto image = make_image(1 << 20);
  SsdDevice ssd(fast_cfg(), image);
  const auto small = ssd.service_time(SsdDevice::Op::kRead, 512);
  const auto large = ssd.service_time(SsdDevice::Op::kRead, 1 << 20);
  EXPECT_GT(large, small);
  // 1 MiB over 500 MB/s per channel ~ 2 ms extra.
  EXPECT_GT(to_seconds(large - small), 1e-3);
}

TEST(Ssd, TimeScaleMultiplier) {
  SsdConfig cfg = fast_cfg();
  cfg.time_scale = 3.0;
  auto image = make_image(4096);
  SsdDevice ssd(cfg, image);
  EXPECT_NEAR(to_seconds(ssd.service_time(SsdDevice::Op::kRead, 512)),
              3.0 * (200e-6 + 512.0 / (4000.0 / 8) * 1e-6), 1e-6);
}

// -- ChannelArbiter: the dispatch decision on given timestamps --------------

using Start = ChannelArbiter::Start;

/// One recorded request of a synthetic trace.
struct TraceReq {
  std::uint64_t token;
  TimePoint submit;
  Duration service;
  IoClass io_class;
};

/// Replays `trace` through `arb` the way the device drives it: at each
/// submit the channels that freed by then dispatch first (device thread),
/// then the request queues and dispatches if a channel is free (submit
/// path); at the end everything still queued starts.
std::map<std::uint64_t, Start> replay(ChannelArbiter& arb,
                                      const std::vector<TraceReq>& trace) {
  std::map<std::uint64_t, Start> starts;
  const auto drain_until = [&](TimePoint now) {
    while (const auto s = arb.dispatch(now)) starts[s->token] = *s;
  };
  for (const TraceReq& r : trace) {
    drain_until(r.submit);
    arb.enqueue({r.token, r.submit, r.service, r.io_class});
    drain_until(r.submit);
  }
  while (!arb.idle()) drain_until(arb.next_free());
  return starts;
}

std::vector<TraceReq> recorded_trace(std::uint64_t seed, std::size_t n,
                                     TimePoint t0) {
  // Bursty arrivals (half of them with no gap) over services of 80-600 us
  // on 4 channels, about 85% load: the queue both builds up past the
  // channels and drains to idle.
  Rng rng(seed);
  std::vector<TraceReq> trace;
  TimePoint t = t0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_double() < 0.5) t += from_us(rng.next_double() * 400.0);
    trace.push_back({i + 1, t, from_us(80.0 + rng.next_double() * 520.0),
                     IoClass::kThroughput});
  }
  return trace;
}

TEST(ChannelArbiter, SingleClassReproducesEarliestFreeChannelSchedule) {
  const TimePoint t0{};
  for (const IoClass c : {IoClass::kThroughput, IoClass::kLatency}) {
    SCOPED_TRACE(io_class_name(c));
    std::vector<TraceReq> trace = recorded_trace(17, 2000, t0);
    for (TraceReq& r : trace) r.io_class = c;
    // The submit-time formula: each request takes the earliest-free
    // channel, start = max(submit, that channel's free time).
    std::vector<TimePoint> free(4, t0);
    double busy_ref = 0.0;
    std::map<std::uint64_t, std::pair<TimePoint, TimePoint>> ref;
    for (const TraceReq& r : trace) {
      auto ch = std::min_element(free.begin(), free.end());
      const TimePoint start = std::max(r.submit, *ch);
      *ch = start + r.service;
      ref[r.token] = {start, *ch};
      busy_ref += to_seconds(r.service);
    }
    ChannelArbiter arb(4, t0);
    const auto starts = replay(arb, trace);
    ASSERT_EQ(starts.size(), trace.size());
    double busy = 0.0;
    std::size_t queued = 0;
    for (const auto& [token, s] : starts) {
      EXPECT_EQ(s.start, ref[token].first) << "token " << token;
      EXPECT_EQ(s.done, ref[token].second) << "token " << token;
      busy += to_seconds(s.service);
      if (s.start > s.submit) ++queued;
    }
    EXPECT_EQ(busy, busy_ref);
    // The trace exercises both regimes.
    EXPECT_GT(queued, trace.size() / 10);
    EXPECT_LT(queued, trace.size() * 9 / 10);
  }
}

TEST(ChannelArbiter, LatencyRequestStartsAtTheNextChannelFree) {
  const TimePoint t0{};
  const Duration svc = from_us(100.0);
  ChannelArbiter arb(2, t0);
  std::uint64_t token = 1;
  // Two throughput requests take both channels; 10 more queue behind them.
  for (int i = 0; i < 12; ++i) {
    arb.enqueue({token++, t0, svc, IoClass::kThroughput});
  }
  ASSERT_TRUE(arb.dispatch(t0).has_value());
  ASSERT_TRUE(arb.dispatch(t0).has_value());
  ASSERT_FALSE(arb.dispatch(t0 + from_us(50.0)).has_value());  // all busy
  const std::uint64_t latency = token++;
  arb.enqueue({latency, t0 + from_us(60.0), svc, IoClass::kLatency});
  const auto s = arb.dispatch(t0 + from_us(100.0));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->token, latency);
  EXPECT_EQ(s->io_class, IoClass::kLatency);
  EXPECT_EQ(s->start, t0 + svc);  // the first channel to free
  // The queued throughput requests follow in FIFO order.
  const auto next = arb.dispatch(t0 + from_us(100.0));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->token, 3u);
}

TEST(ChannelArbiter, ThroughputStartsWithinTheStarvationBound) {
  const TimePoint t0{};
  const Duration svc = from_us(10.0);
  constexpr unsigned kW = ChannelArbiter::kLatencyBurst;
  ChannelArbiter arb(1, t0);
  std::uint64_t token = 1;
  arb.enqueue({token++, t0, svc, IoClass::kThroughput});
  ASSERT_TRUE(arb.dispatch(t0).has_value());  // occupies the channel
  // Five throughput requests wait behind it; a continuous latency stream
  // (a new arrival before every channel free) competes with them.
  for (int i = 0; i < 5; ++i) {
    arb.enqueue({token++, t0, svc, IoClass::kThroughput});
  }
  std::vector<IoClass> order;
  TimePoint now = t0;
  for (int d = 0; d < 60; ++d) {
    arb.enqueue({token++, now, svc, IoClass::kLatency});
    now += svc;
    const auto s = arb.dispatch(now);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->start, now);  // work-conserving: no channel idles
    order.push_back(s->io_class);
  }
  // Every throughput request starts within W + 1 dispatches of the
  // previous one (or of the stream's first dispatch), and latency runs
  // W at a time in between.
  std::size_t since = 0;
  int throughput = 0;
  for (const IoClass c : order) {
    ++since;
    if (c == IoClass::kThroughput) {
      EXPECT_LE(since, kW + 1);
      EXPECT_EQ(since, kW + 1);  // the latency class went first W times
      since = 0;
      ++throughput;
    }
  }
  EXPECT_EQ(throughput, 5);
}

TEST(ChannelArbiter, CancelBeforeStartFreesNoChannelTime) {
  const TimePoint t0{};
  const Duration svc = from_us(100.0);
  ChannelArbiter arb(1, t0);
  arb.enqueue({1, t0, svc, IoClass::kThroughput});
  arb.enqueue({2, t0, svc, IoClass::kThroughput});
  arb.enqueue({3, t0, svc, IoClass::kThroughput});
  ASSERT_EQ(arb.dispatch(t0)->token, 1u);
  EXPECT_FALSE(arb.cancel(1));  // started: keeps its channel
  EXPECT_TRUE(arb.cancel(2));   // queued: leaves without a channel
  EXPECT_FALSE(arb.cancel(2));
  const auto s = arb.dispatch(t0 + svc);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->token, 3u);
  EXPECT_EQ(s->start, t0 + svc);  // not t0 + 2 x svc
  EXPECT_TRUE(arb.idle());
}

TEST(Ssd, CancelledQueuedRequestTakesNoChannelOrBusyTime) {
  // One channel, 30 ms service: the second read is certainly still queued
  // when it is cancelled, whatever the host's scheduling.
  SsdConfig cfg = fast_cfg();
  cfg.channels = 1;
  cfg.read_latency_us = 30000.0;
  auto image = make_image(1 << 16);
  SsdDevice ssd(cfg, image);
  std::uint8_t first[512];
  std::uint8_t second[512];
  std::memset(second, 0xEE, sizeof(second));
  std::atomic<int> completions{0};
  ssd.submit(SsdDevice::Op::kRead, 0, 512, first,
             [&](std::int32_t) { ++completions; });
  const std::uint64_t queued =
      ssd.submit(SsdDevice::Op::kRead, 4096, 512, second,
                 [&](std::int32_t) { ++completions; });
  EXPECT_TRUE(ssd.try_cancel(queued));
  ssd.drain();
  EXPECT_EQ(completions.load(), 1);
  for (unsigned char b : second) EXPECT_EQ(b, 0xEE);  // never touched
  const SsdStats stats = ssd.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.reads, 2u);  // submitted requests, cancelled or not
  // Only the read that started was charged busy time.
  EXPECT_EQ(stats.busy_seconds,
            to_seconds(ssd.service_time(SsdDevice::Op::kRead, 512)));
}

TEST(Ssd, ClassCountersSumToReadsAndMirrorIntoTheRegistry) {
  auto image = make_image(1 << 20);
  SsdDevice ssd(fast_cfg(), image);
  Telemetry telemetry;
  ssd.set_telemetry(&telemetry);
  std::vector<std::uint8_t> bufs(16 * 512);
  for (int i = 0; i < 16; ++i) {
    ssd.submit(SsdDevice::Op::kRead, i * 512, 512, bufs.data() + i * 512,
               nullptr);  // throughput by default
  }
  std::uint8_t buf[512];
  for (int i = 0; i < 3; ++i) ssd.read_sync(i * 512, 512, buf);  // latency
  ssd.write_sync(0, 512, buf);
  ssd.drain();
  const SsdStats stats = ssd.stats();
  EXPECT_EQ(stats.of(IoClass::kThroughput).reads, 16u);
  EXPECT_EQ(stats.of(IoClass::kLatency).reads, 3u);
  EXPECT_EQ(stats.of(IoClass::kThroughput).reads +
                stats.of(IoClass::kLatency).reads,
            stats.reads);
  // 16 reads over 8 channels: the second eight waited a service time.
  EXPECT_GT(stats.of(IoClass::kThroughput).queue_wait_seconds, 0.0);
  MetricsRegistry& reg = *telemetry.metrics();
  EXPECT_EQ(reg.counter("ssd.throughput.reads").value(), 16u);
  EXPECT_EQ(reg.counter("ssd.latency.reads").value(), 3u);
  EXPECT_EQ(reg.counter("ssd.throughput.queue_wait_us").value(),
            static_cast<std::uint64_t>(
                stats.of(IoClass::kThroughput).queue_wait_seconds * 1e6));
  EXPECT_EQ(reg.counter("ssd.busy_us").value(),
            static_cast<std::uint64_t>(stats.busy_seconds * 1e6));
  ssd.set_telemetry(nullptr);
}

TEST(FileBackend, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/gnndrive_filebackend.bin";
  auto backend = std::make_shared<FileBackend>(path, 1 << 16);
  std::uint8_t data[4096];
  for (int i = 0; i < 4096; ++i) data[i] = static_cast<std::uint8_t>(i);
  backend->write(8192, 4096, data);
  std::uint8_t readback[4096];
  backend->read(8192, 4096, readback);
  EXPECT_EQ(std::memcmp(data, readback, 4096), 0);
  EXPECT_EQ(backend->size(), 1u << 16);
}

TEST(FileBackend, WorksUnderDeviceModel) {
  const std::string path = ::testing::TempDir() + "/gnndrive_filedev.bin";
  auto backend = std::make_shared<FileBackend>(path, 1 << 16);
  std::uint8_t data[512];
  std::memset(data, 0xAB, sizeof(data));
  SsdDevice ssd(fast_cfg(), backend);
  ssd.write_sync(0, 512, data);
  std::uint8_t readback[512];
  ssd.read_sync(0, 512, readback);
  EXPECT_EQ(std::memcmp(data, readback, 512), 0);
}

TEST(FileBackend, SuccessReturnsZeroAndPartialOffsetsWork) {
  const std::string path = ::testing::TempDir() + "/gnndrive_fileerr.bin";
  auto backend = std::make_shared<FileBackend>(path, 1 << 16);
  std::uint8_t data[777];
  for (int i = 0; i < 777; ++i) data[i] = static_cast<std::uint8_t>(i * 13);
  // Odd sizes/offsets exercise the short-transfer loop boundaries.
  EXPECT_EQ(backend->write(123, 777, data), 0);
  std::uint8_t readback[777] = {};
  EXPECT_EQ(backend->read(123, 777, readback), 0);
  EXPECT_EQ(std::memcmp(data, readback, 777), 0);
}

// -- Fault injection ----------------------------------------------------------

TEST(SsdFaults, CertainEioFailsWithoutDataMovement) {
  auto image = make_image(1 << 16);
  SsdDevice ssd(fast_cfg(), image);
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.eio_probability = 1.0;
  ssd.set_fault_config(faults);

  std::uint8_t buf[512];
  std::memset(buf, 0xCD, sizeof(buf));
  EXPECT_EQ(ssd.read_sync(0, 512, buf), -EIO);
  // An injected failure never touches the caller's buffer.
  for (unsigned char b : buf) EXPECT_EQ(b, 0xCD);
  EXPECT_EQ(ssd.stats().injected_eio, 1u);

  // Runtime toggle: disabling restores normal service.
  ssd.set_fault_config(SsdFaultConfig{});
  EXPECT_EQ(ssd.read_sync(0, 512, buf), 512);
  EXPECT_EQ(std::memcmp(buf, image->raw(), 512), 0);
}

TEST(SsdFaults, BadRangesFailReadsDeterministically) {
  auto image = make_image(1 << 16);
  SsdDevice ssd(fast_cfg(), image);
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.bad_ranges.push_back({4096, 8192});
  ssd.set_fault_config(faults);

  std::uint8_t buf[512];
  // Fully inside, straddling the edge, and clean reads.
  EXPECT_EQ(ssd.read_sync(4096, 512, buf), -EIO);
  EXPECT_EQ(ssd.read_sync(8192 - 256, 512, buf), -EIO);
  EXPECT_EQ(ssd.read_sync(0, 512, buf), 512);
  EXPECT_EQ(ssd.read_sync(8192, 512, buf), 512);
  EXPECT_EQ(ssd.stats().injected_eio, 2u);
}

TEST(SsdFaults, LatencySpikesSlowButSucceed) {
  SsdConfig cfg = fast_cfg();
  cfg.read_latency_us = 300.0;
  auto image = make_image(1 << 16);
  SsdDevice ssd(cfg, image);
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.spike_probability = 1.0;
  faults.spike_multiplier = 5.0;
  ssd.set_fault_config(faults);

  std::uint8_t buf[512];
  const TimePoint t0 = Clock::now();
  EXPECT_EQ(ssd.read_sync(0, 512, buf), 512);
  const double elapsed = to_seconds(Clock::now() - t0);
  EXPECT_GE(elapsed, 2 * 300e-6);  // well beyond the un-spiked service time
  EXPECT_EQ(std::memcmp(buf, image->raw(), 512), 0);
  EXPECT_EQ(ssd.stats().injected_spikes, 1u);
}

TEST(SsdFaults, StuckRequestNeverCompletesUntilCancelled) {
  auto image = make_image(1 << 16);
  SsdDevice ssd(fast_cfg(), image);
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.stuck_probability = 1.0;
  ssd.set_fault_config(faults);

  std::uint8_t buf[512];
  std::memset(buf, 0xEE, sizeof(buf));
  std::atomic<int> completions{0};
  const std::uint64_t token =
      ssd.submit(SsdDevice::Op::kRead, 0, 512, buf,
                 [&](std::int32_t) { ++completions; });
  std::this_thread::sleep_for(from_us(5000.0));
  EXPECT_EQ(completions.load(), 0);  // far past normal service time
  EXPECT_TRUE(ssd.try_cancel(token));
  ssd.drain();  // returns: the cancelled request no longer counts
  EXPECT_EQ(completions.load(), 0);  // cancelled => callback never runs
  for (unsigned char b : buf) EXPECT_EQ(b, 0xEE);  // buffer never touched
  const SsdStats stats = ssd.stats();
  EXPECT_EQ(stats.injected_stuck, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(SsdFaults, TryCancelFailsAfterCompletion) {
  auto image = make_image(1 << 16);
  SsdDevice ssd(fast_cfg(), image);
  std::uint8_t buf[512];
  std::atomic<int> completions{0};
  const std::uint64_t token =
      ssd.submit(SsdDevice::Op::kRead, 0, 512, buf,
                 [&](std::int32_t res) {
                   EXPECT_EQ(res, 512);
                   ++completions;
                 });
  ssd.drain();
  EXPECT_EQ(completions.load(), 1);
  EXPECT_FALSE(ssd.try_cancel(token));
  EXPECT_EQ(ssd.stats().cancelled, 0u);
}

TEST(SsdFaults, SetFaultConfigRejectsBadProbabilities) {
  auto image = make_image(64 * 1024);
  SsdDevice ssd(fast_cfg(), image);
  SsdFaultConfig faults;
  faults.enabled = true;

  faults.eio_probability = -0.1;
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.eio_probability = 1.5;
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.eio_probability = std::nan("");
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.eio_probability = 0.0;

  faults.spike_probability = 2.0;
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.spike_probability = 0.0;

  faults.stuck_probability = std::nan("");
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.stuck_probability = 0.0;

  // Boundary values are legal.
  faults.eio_probability = 1.0;
  faults.spike_probability = 0.0;
  EXPECT_NO_THROW(ssd.set_fault_config(faults));
}

TEST(SsdFaults, SetFaultConfigRejectsBadMultiplierAndRanges) {
  auto image = make_image(64 * 1024);
  SsdDevice ssd(fast_cfg(), image);
  SsdFaultConfig faults;
  faults.enabled = true;

  faults.spike_multiplier = 0.5;  // would *speed up* spiked requests
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.spike_multiplier = std::nan("");
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.spike_multiplier = 20.0;

  faults.bad_ranges.push_back({4096, 4096});  // empty interval
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.bad_ranges.back() = {8192, 4096};  // inverted
  EXPECT_THROW(ssd.set_fault_config(faults), std::invalid_argument);
  faults.bad_ranges.back() = {4096, 8192};
  EXPECT_NO_THROW(ssd.set_fault_config(faults));
}

TEST(SsdFaults, RejectedConfigLeavesInstalledInjectorUntouched) {
  auto image = make_image(64 * 1024);
  SsdDevice ssd(fast_cfg(), image);
  SsdFaultConfig good;
  good.enabled = true;
  good.bad_ranges.push_back({0, 4096});
  ssd.set_fault_config(good);

  SsdFaultConfig bad = good;
  bad.eio_probability = 7.0;
  EXPECT_THROW(ssd.set_fault_config(bad), std::invalid_argument);
  // The previously armed injector still fires.
  std::uint8_t buf[512];
  EXPECT_EQ(ssd.read_sync(0, 512, buf), -EIO);

  // A disabled config skips validation entirely (it installs nothing).
  SsdFaultConfig off;
  off.enabled = false;
  off.eio_probability = 7.0;
  EXPECT_NO_THROW(ssd.set_fault_config(off));
  EXPECT_EQ(ssd.read_sync(0, 512, buf), 512);
}

TEST(SsdFaults, InjectorIsDeterministicPerSeed) {
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.seed = 1234;
  faults.eio_probability = 0.3;
  faults.spike_probability = 0.2;
  faults.stuck_probability = 0.1;
  FaultInjector a(faults);
  FaultInjector b(faults);
  for (int i = 0; i < 1000; ++i) {
    const auto da = a.decide(true, i * 512u, 512);
    const auto db = b.decide(true, i * 512u, 512);
    EXPECT_EQ(da.res, db.res);
    EXPECT_EQ(da.stuck, db.stuck);
    EXPECT_DOUBLE_EQ(da.latency_multiplier, db.latency_multiplier);
  }
}

}  // namespace
}  // namespace gnndrive
