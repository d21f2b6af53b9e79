// Simulated SSD: data integrity, service-time model, channel overlap.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "storage/ssd.hpp"
#include "util/rng.hpp"

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
  // 8 concurrent 512B reads on 8 channels should take ~1 service time,
  // not 8; serialized they would take >= 1.6 ms.
  auto image = make_image(1 << 20);
  SsdDevice ssd(fast_cfg(), image);
  std::vector<std::uint8_t> bufs(8 * 512);
  std::atomic<int> done{0};
  const TimePoint t0 = Clock::now();
  for (int i = 0; i < 8; ++i) {
    ssd.submit(SsdDevice::Op::kRead, i * 4096, 512, bufs.data() + i * 512,
               [&](std::int32_t) { ++done; });
  }
  ssd.drain();
  const double elapsed = to_seconds(Clock::now() - t0);
  EXPECT_EQ(done.load(), 8);
  EXPECT_LT(elapsed, 8 * 200e-6);  // strictly better than serial
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
