// io_uring-style ring: submission/completion plumbing, O_DIRECT alignment,
// buffered-mode page-cache interaction.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <set>
#include <stdexcept>

#include "aio/io_ring.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {
namespace {

struct RingFixture : ::testing::Test {
  void SetUp() override {
    image = std::make_shared<MemBackend>(256 * 1024);
    Rng rng(11);
    for (std::uint64_t i = 0; i < image->size(); ++i) {
      image->raw()[i] = static_cast<std::uint8_t>(rng());
    }
    SsdConfig cfg;
    cfg.read_latency_us = 30.0;
    cfg.channels = 8;
    ssd = std::make_unique<SsdDevice>(cfg, image);
    mem = std::make_unique<HostMemory>(64 * kPageSize);
    cache = std::make_unique<PageCache>(*mem, *ssd);
  }
  std::shared_ptr<MemBackend> image;
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<HostMemory> mem;
  std::unique_ptr<PageCache> cache;
};

TEST_F(RingFixture, DirectReadDeliversData) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  ASSERT_TRUE(ring.prep_read(1024, 512, buf, 42));
  EXPECT_EQ(ring.submit(), 1u);
  const Cqe cqe = ring.wait_cqe();
  EXPECT_EQ(cqe.user_data, 42u);
  EXPECT_EQ(cqe.res, 512);
  EXPECT_EQ(std::memcmp(buf, image->raw() + 1024, 512), 0);
}

TEST_F(RingFixture, DirectRejectsUnalignedOffset) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  ring.prep_read(100, 512, buf, 1);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, -22);
}

TEST_F(RingFixture, DirectRejectsUnalignedLength) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[600];
  ring.prep_read(512, 600, buf, 2);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, -22);
}

TEST_F(RingFixture, QueueDepthLimitsStagedSqes) {
  IoRing ring(*ssd, {.queue_depth = 2, .direct = true});
  std::uint8_t buf[512];
  EXPECT_TRUE(ring.prep_read(0, 512, buf, 0));
  EXPECT_TRUE(ring.prep_read(512, 512, buf, 1));
  EXPECT_FALSE(ring.prep_read(1024, 512, buf, 2));  // SQ full
  EXPECT_EQ(ring.submit(), 2u);
  ring.wait_cqe();
  ring.wait_cqe();
}

TEST_F(RingFixture, ManyInFlightAllComplete) {
  IoRing ring(*ssd, {.queue_depth = 64, .direct = true});
  std::vector<std::uint8_t> bufs(64 * 512);
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(ring.prep_read(i * 512, 512, bufs.data() + i * 512, i));
  }
  EXPECT_EQ(ring.submit(), 64u);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    const Cqe cqe = ring.wait_cqe();
    EXPECT_GE(cqe.res, 0);
    seen.insert(cqe.user_data);
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(ring.in_flight(), 0u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(std::memcmp(bufs.data() + i * 512, image->raw() + i * 512, 512),
              0);
  }
}

TEST_F(RingFixture, AsyncDepthBeatsSerialLatency) {
  // The Appendix B observation that async depth replaces thread count: at
  // depth 32 one submit puts all 32 reads in flight, so their device
  // latencies overlap; at depth 1 each waits for the one before. Asserted
  // on the ring's in-flight high-water mark (io.inflight), which does not
  // depend on how fast the host runs; the gain itself is timed by
  // bench/figB1_sync_vs_async_io (async depth 1..64).
  const auto inflight_max = [&](unsigned depth) {
    Telemetry telemetry;
    IoRing ring(*ssd, {.queue_depth = depth, .direct = true}, nullptr,
                &telemetry);
    std::vector<std::uint8_t> bufs(32 * 512);
    std::uint64_t staged = 0;
    for (int done = 0; done < 32; ++done) {
      while (staged < 32 && ring.prep_read(staged * 4096, 512,
                                           bufs.data() + staged * 512,
                                           staged)) {
        ++staged;
      }
      ring.submit();
      EXPECT_EQ(ring.wait_cqe().res, 512);
    }
    for (std::uint64_t i = 0; i < 32; ++i) {
      EXPECT_EQ(
          std::memcmp(bufs.data() + i * 512, image->raw() + i * 4096, 512), 0);
    }
    return telemetry.metrics()->gauge("io.inflight").max();
  };
  EXPECT_EQ(inflight_max(32), 32);
  EXPECT_EQ(inflight_max(1), 1);
}

TEST_F(RingFixture, PeekCqeNonBlocking) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  EXPECT_FALSE(ring.peek_cqe().has_value());
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 5);
  ring.submit();
  ring.wait_cqe();  // ensure completion consumed
  EXPECT_FALSE(ring.peek_cqe().has_value());
}

TEST_F(RingFixture, DirectBypassesPageCache) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true}, cache.get());
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 0);
  ring.submit();
  ring.wait_cqe();
  EXPECT_EQ(cache->resident_pages(), 0u);
}

TEST_F(RingFixture, BufferedPopulatesAndHitsPageCache) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = false}, cache.get());
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 0);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, 512);
  EXPECT_TRUE(cache->contains_page(0));
  const auto reads_before = ssd->stats().reads;

  // Second buffered read of the same range: served by the cache, no device
  // traffic, data still correct.
  std::uint8_t buf2[512];
  ring.prep_read(0, 512, buf2, 1);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, 512);
  EXPECT_EQ(ssd->stats().reads, reads_before);
  EXPECT_EQ(std::memcmp(buf2, image->raw(), 512), 0);
}

TEST_F(RingFixture, BufferedAllowsUnalignedAccess) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = false}, cache.get());
  std::uint8_t buf[100];
  ring.prep_read(37, 100, buf, 7);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, 100);
  EXPECT_EQ(std::memcmp(buf, image->raw() + 37, 100), 0);
}

TEST_F(RingFixture, MisalignedDirectReadNeverTouchesDevice) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  const auto reads_before = ssd->stats().reads;
  std::uint8_t buf[512];
  ring.prep_read(100, 512, buf, 9);  // unaligned offset
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, -EINVAL);
  EXPECT_EQ(ssd->stats().reads, reads_before);  // rejected before submission
}

TEST_F(RingFixture, BufferedWithoutCacheIsAConstructorError) {
  EXPECT_THROW(IoRing(*ssd, {.queue_depth = 8, .direct = false}, nullptr),
               std::invalid_argument);
}

TEST_F(RingFixture, RingClassReachesTheDevice) {
  // A ring's requests, buffered misses included, carry its io_class to the
  // device; page-cache faults are latency-class sync reads.
  IoRing bulk(*ssd, {.queue_depth = 8, .direct = true});
  IoRing serve(*ssd, {.queue_depth = 8,
                      .direct = false,
                      .io_class = IoClass::kLatency},
               cache.get());
  std::uint8_t a[512];
  std::uint8_t b[512];
  ASSERT_TRUE(bulk.prep_read(0, 512, a, 1));
  ASSERT_TRUE(serve.prep_read(8192, 512, b, 2));
  bulk.submit();
  serve.submit();
  EXPECT_EQ(bulk.wait_cqe().res, 512);
  EXPECT_EQ(serve.wait_cqe().res, 512);
  const SsdStats stats = ssd->stats();
  EXPECT_EQ(stats.of(IoClass::kThroughput).reads, 1u);
  EXPECT_EQ(stats.of(IoClass::kLatency).reads, 1u);
  EXPECT_EQ(stats.reads, 2u);
}

TEST_F(RingFixture, InjectedEioReachesWaitCqe) {
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.eio_probability = 1.0;
  ssd->set_fault_config(faults);
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  std::memset(buf, 0x5A, sizeof(buf));
  ring.prep_read(0, 512, buf, 77);
  ring.submit();
  const Cqe cqe = ring.wait_cqe();
  EXPECT_EQ(cqe.user_data, 77u);
  EXPECT_EQ(cqe.res, -EIO);
  for (unsigned char b : buf) EXPECT_EQ(b, 0x5A);  // buffer untouched
  EXPECT_EQ(ring.in_flight(), 0u);
}

TEST_F(RingFixture, WaitCqeForTimesOutThenDelivers) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  // Nothing in flight: the bounded wait returns empty.
  EXPECT_FALSE(ring.wait_cqe_for(from_us(200.0)).has_value());
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 3);
  ring.submit();
  std::optional<Cqe> cqe;
  for (int i = 0; i < 1000 && !cqe; ++i) cqe = ring.wait_cqe_for(from_us(500.0));
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->user_data, 3u);
  EXPECT_EQ(cqe->res, 512);
}

TEST_F(RingFixture, WatchdogCancelsStuckRequestWithTimeout) {
  SsdFaultConfig faults;
  faults.enabled = true;
  faults.stuck_probability = 1.0;
  ssd->set_fault_config(faults);
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  std::memset(buf, 0x6B, sizeof(buf));
  ring.prep_read(0, 512, buf, 11);
  ring.submit();
  const Duration req_timeout = from_us(2000.0);
  std::optional<Cqe> cqe;
  // Watchdog loop exactly as the extract stage runs it: bounded wait, then
  // an expiry sweep. The stuck request must surface as -ETIMEDOUT well
  // within a bounded number of polls.
  for (int i = 0; i < 100 && !cqe; ++i) {
    cqe = ring.wait_cqe_for(from_us(500.0));
    if (!cqe) ring.cancel_expired(req_timeout);
  }
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->user_data, 11u);
  EXPECT_EQ(cqe->res, -ETIMEDOUT);
  for (unsigned char b : buf) EXPECT_EQ(b, 0x6B);  // cancelled => untouched
  EXPECT_EQ(ring.in_flight(), 0u);
  EXPECT_EQ(ssd->stats().cancelled, 1u);
}

TEST_F(RingFixture, CancelExpiredLeavesFreshRequestsAlone) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::uint8_t buf[512];
  ring.prep_read(0, 512, buf, 21);
  ring.submit();
  // A generous timeout must not cancel a request that was just submitted.
  EXPECT_EQ(ring.cancel_expired(from_us(1e6)), 0u);
  EXPECT_EQ(ring.wait_cqe().res, 512);
}

TEST_F(RingFixture, WriteRoundTrip) {
  IoRing ring(*ssd, {.queue_depth = 8, .direct = true});
  std::vector<std::uint8_t> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 3);
  }
  ring.prep_write(2048, 1024, data.data(), 0);
  ring.submit();
  EXPECT_EQ(ring.wait_cqe().res, 1024);
  EXPECT_EQ(std::memcmp(image->raw() + 2048, data.data(), 1024), 0);
}

}  // namespace
}  // namespace gnndrive
