// Telemetry details: BusyScope I/O-wait subtraction, thread-local wait
// accounting, queue reopen, env knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aio/io_ring.hpp"
#include "memsim/page_cache.hpp"
#include "obs/metrics.hpp"
#include "storage/ssd.hpp"
#include "util/env.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

TEST(BusyScope, SubtractsIoWaitFromCpuBusy) {
  Telemetry tel(50.0);
  tel.start();
  {
    BusyScope busy(&tel);
    // 10 ms of "compute" ...
    const TimePoint until = Clock::now() + std::chrono::milliseconds(10);
    while (Clock::now() < until) {
    }
    // ... and 30 ms blocked on I/O.
    ScopedTrace io(&tel, TraceCat::kIoWait);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  const double cpu = tel.total_seconds(TraceCat::kCpuBusy);
  const double io = tel.total_seconds(TraceCat::kIoWait);
  EXPECT_NEAR(io, 0.030, 0.01);
  EXPECT_NEAR(cpu, 0.010, 0.008);  // the 30 ms wait must NOT count as busy
}

TEST(BusyScope, NoTelemetryIsHarmless) {
  BusyScope busy(nullptr);
  ScopedTrace io(nullptr, TraceCat::kIoWait);
}

TEST(ThreadIoWait, AccumulatesPerThread) {
  const double before = thread_io_wait_seconds();
  {
    ScopedTrace io(nullptr, TraceCat::kIoWait);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(thread_io_wait_seconds() - before, 0.004);

  // A different thread has its own accumulator.
  double other = -1;
  std::thread t([&] { other = thread_io_wait_seconds(); });
  t.join();
  EXPECT_EQ(other, 0.0);
}

TEST(Telemetry, SyncDeviceReadCountsAsIoWaitViaPageCache) {
  auto image = std::make_shared<MemBackend>(64 * kPageSize);
  SsdConfig cfg;
  cfg.read_latency_us = 2000.0;
  SsdDevice ssd(cfg, image);
  HostMemory mem(32 * kPageSize);
  Telemetry tel(10.0);
  tel.start();
  PageCache cache(mem, ssd, &tel);
  std::uint8_t buf[8];
  cache.read(0, 8, buf);  // cold miss: ~2 ms modeled wait
  EXPECT_GE(tel.total_seconds(TraceCat::kIoWait), 1.5e-3);
}

TEST(Telemetry, IntervalApportionsAcrossManyBuckets) {
  // A 47 ms interval on a 10 ms grid must spread across at least 5 buckets
  // and conserve its total duration (no double counting at bucket edges).
  Telemetry tel(/*bucket_ms=*/10.0);
  tel.start();
  const TimePoint t0 = Clock::now();
  tel.record(TraceCat::kCpuBusy, t0, t0 + std::chrono::milliseconds(47));
  const auto buckets = tel.snapshot();
  std::size_t touched = 0;
  double total = 0.0;
  for (const auto& b : buckets) {
    if (b.cpu_busy > 0) ++touched;
    total += b.cpu_busy;
    // No bucket can hold more than its own width from a single thread.
    EXPECT_LE(b.cpu_busy, tel.bucket_seconds() + 1e-6);
  }
  EXPECT_GE(touched, 5u);
  EXPECT_NEAR(total, 0.047, 1e-4);
  EXPECT_NEAR(tel.total_seconds(TraceCat::kCpuBusy), 0.047, 1e-4);
}

TEST(Telemetry, IntervalsBeforeStartAreDropped) {
  Telemetry tel(10.0);
  const TimePoint t0 = Clock::now();
  // Not started yet: recording is a no-op.
  tel.record(TraceCat::kCpuBusy, t0, t0 + std::chrono::milliseconds(20));
  EXPECT_DOUBLE_EQ(tel.total_seconds(TraceCat::kCpuBusy), 0.0);
  for (const auto& b : tel.snapshot()) {
    EXPECT_DOUBLE_EQ(b.cpu_busy, 0.0);
    EXPECT_DOUBLE_EQ(b.io_wait, 0.0);
    EXPECT_DOUBLE_EQ(b.gpu_busy, 0.0);
  }
  tel.start();
  tel.record(TraceCat::kCpuBusy, Clock::now(),
             Clock::now() + std::chrono::milliseconds(5));
  EXPECT_NEAR(tel.total_seconds(TraceCat::kCpuBusy), 0.005, 1e-4);
}

TEST(Telemetry, FaultCountersCountAndMirrorIntoRegistry) {
  // The fault.* counters live in the registry alone: listed at zero from
  // construction, so /metrics shows them before the first fault, then
  // added to by the components that observe faults.
  Telemetry tel;
  MetricsRegistry& reg = *tel.metrics();
  const auto snap = reg.snapshot();
  for (const std::string name : {"fault.io_errors", "fault.io_retries",
                                 "fault.io_timeouts", "fault.failed_batches"}) {
    const auto it = std::find_if(
        snap.counters.begin(), snap.counters.end(),
        [&](const auto& counter) { return counter.first == name; });
    ASSERT_NE(it, snap.counters.end()) << name;
    EXPECT_EQ(it->second, 0u) << name;
  }

  auto image = std::make_shared<MemBackend>(64 * kPageSize);
  SsdDevice ssd(SsdConfig{}, image);
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.eio_probability = 1.0;
  ssd.set_fault_config(faults);
  // The page cache tries a failing synchronous read four times.
  HostMemory mem(32 * kPageSize);
  PageCache cache(mem, ssd, &tel);
  std::uint8_t buf[8];
  EXPECT_THROW(cache.read(0, sizeof(buf), buf), std::runtime_error);
  EXPECT_EQ(reg.counter("fault.io_errors").value(), 4u);
  EXPECT_EQ(reg.counter("fault.io_retries").value(), 3u);

  // A ring counts a watchdog cancellation as a timeout and an error.
  faults.eio_probability = 0.0;
  faults.stuck_probability = 1.0;
  ssd.set_fault_config(faults);
  IoRing ring(ssd, IoRingConfig{}, nullptr, &tel);
  std::vector<std::uint8_t> page(kPageSize);
  ASSERT_TRUE(ring.prep_read(0, kPageSize, page.data(), 1));
  ring.submit();
  EXPECT_EQ(ring.cancel_expired(Duration::zero()), 1u);
  EXPECT_EQ(ring.wait_cqe().res, -ETIMEDOUT);
  EXPECT_EQ(reg.counter("fault.io_timeouts").value(), 1u);
  EXPECT_EQ(reg.counter("fault.io_errors").value(), 5u);
}

TEST(EnvKnobs, DefaultsAndParsing) {
  ::unsetenv("GNNDRIVE_BENCH_MODE");
  EXPECT_FALSE(bench_full_mode());
  ::setenv("GNNDRIVE_BENCH_MODE", "full", 1);
  EXPECT_TRUE(bench_full_mode());
  ::unsetenv("GNNDRIVE_BENCH_MODE");

  ::setenv("GD_TEST_KNOB", "17", 1);
  EXPECT_EQ(env_long("GD_TEST_KNOB", 0), 17);
  EXPECT_DOUBLE_EQ(env_double("GD_TEST_KNOB", 0.0), 17.0);
  EXPECT_EQ(env_str("GD_TEST_KNOB", ""), "17");
  ::unsetenv("GD_TEST_KNOB");
  EXPECT_EQ(env_long("GD_TEST_KNOB", 5), 5);
}

}  // namespace
}  // namespace gnndrive
