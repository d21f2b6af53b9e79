// io_uring-style asynchronous I/O ring over the simulated SSD.
//
// liburing is unavailable in this environment, so this module reproduces the
// programming model GNNDrive uses (Appendix A): a submission queue of SQEs
// filled by prep_read/prep_write, a submit() call that hands them to the
// device, and a completion queue of CQEs reaped with peek/wait. Exactly one
// thread drives a ring (as in the paper: one extractor owns the asynchronous
// extraction of a mini-batch), while completions arrive from the device
// thread.
//
// Two modes, matching O_DIRECT semantics:
//  * direct: requests bypass the page cache and must be 512 B-aligned in
//    offset and length; violations complete with res == -EINVAL.
//  * buffered: requests consume the simulated OS page cache (hits complete
//    without device service; misses fault through the device and leave the
//    pages resident) — the page-cache pollution GNNDrive avoids.
//
// Error handling: device failures (injected or real FileBackend errno)
// complete their CQEs with res < 0 instead of asserting. The ring tracks
// submission timestamps so a stage watchdog can cancel_expired() overdue
// requests — each cancelled request synthesizes a CQE with -ETIMEDOUT, and
// the device guarantees a cancelled request never touches its buffer (no
// use-after-reuse of staging bytes).
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "memsim/page_cache.hpp"
#include "obs/metrics.hpp"
#include "storage/ssd.hpp"
#include "util/common.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

struct Cqe {
  std::uint64_t user_data = 0;
  std::int32_t res = 0;  ///< >=0: bytes transferred; <0: -errno.
};

struct IoRingConfig {
  unsigned queue_depth = 64;  ///< Max staged-but-unsubmitted SQEs.
  bool direct = true;         ///< O_DIRECT semantics.
  /// Upper bound on one request's length; longer (or zero-length) requests
  /// complete with -EINVAL, like a block layer's max_sectors_kb limit.
  /// 0 disables the cap (zero-length requests still fail). Callers that
  /// coalesce reads set this to their largest segment so a planner bug can
  /// never scribble past its staging bytes.
  std::uint32_t max_transfer_bytes = 0;
  /// Device arbitration class of the ring's requests (buffered misses
  /// included): serve rings are latency-class, bulk extraction throughput.
  IoClass io_class = IoClass::kThroughput;
};

class IoRing : NonCopyable {
 public:
  /// `cache` is required in buffered mode (throws std::invalid_argument
  /// otherwise), ignored in direct mode.
  IoRing(SsdDevice& ssd, IoRingConfig config, PageCache* cache = nullptr,
         Telemetry* telemetry = nullptr);
  ~IoRing();

  /// Stages a read SQE. Returns false when the submission queue is full
  /// (submit() first, like io_uring_get_sqe returning NULL).
  bool prep_read(std::uint64_t offset, std::uint32_t len, void* buf,
                 std::uint64_t user_data);
  bool prep_write(std::uint64_t offset, std::uint32_t len, const void* buf,
                  std::uint64_t user_data);

  /// Submits all staged SQEs to the device; returns how many were submitted.
  unsigned submit();

  /// Non-blocking CQE reap.
  std::optional<Cqe> peek_cqe();

  /// Blocking CQE reap; the wait is attributed to TraceCat::kIoWait.
  Cqe wait_cqe();

  /// Bounded-wait CQE reap: returns nullopt when no CQE arrived within
  /// `timeout` (the watchdog poll primitive).
  std::optional<Cqe> wait_cqe_for(Duration timeout);

  /// Watchdog sweep: cancels every in-flight request submitted more than
  /// `timeout` ago whose device request is still cancellable, synthesizing a
  /// CQE with res == -ETIMEDOUT for each. Requests already completing on the
  /// device are left alone (their CQEs arrive normally). Returns the number
  /// of requests cancelled. Pass Duration::zero() to cancel everything
  /// cancellable (abort path).
  unsigned cancel_expired(Duration timeout);

  /// Number of submitted requests whose CQEs have not been reaped yet.
  unsigned in_flight() const;

  const IoRingConfig& config() const { return config_; }

 private:
  struct Sqe {
    SsdDevice::Op op;
    std::uint64_t offset;
    std::uint32_t len;
    void* buf;
    std::uint64_t user_data;
  };
  struct InFlight {
    std::uint64_t user_data = 0;
    std::uint64_t device_token = 0;  ///< 0 while the submit call is racing
    TimePoint submitted_at;
  };

  void complete(std::uint64_t ring_id, std::int32_t res);
  /// Hands one registered request to the device (or fails/serves it at
  /// once); returns its device token, 0 when the device never saw it.
  std::uint64_t submit_one(const Sqe& sqe, std::uint64_t ring_id);

  SsdDevice& ssd_;
  const IoRingConfig config_;
  PageCache* cache_;
  Telemetry* telemetry_;

  std::vector<Sqe> staged_;
  std::vector<std::uint64_t> tokens_;  ///< submit() scratch, by staged index

  mutable std::mutex mu_;
  std::condition_variable cq_ready_;
  std::condition_variable all_done_;
  std::deque<Cqe> cq_;
  std::unordered_map<std::uint64_t, InFlight> inflight_;  ///< by ring id
  std::uint64_t next_ring_id_ = 1;
  unsigned in_flight_ = 0;

  // Observability, resolved from the telemetry's registry or from
  // owned_metrics_. Rings sharing a Telemetry share the instruments:
  // counters/histograms aggregate, the in-flight gauge is updated with
  // deltas so it sums across rings.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* m_submitted_;         ///< io.submitted
  Counter* m_io_errors_;         ///< fault.io_errors
  Counter* m_io_timeouts_;       ///< fault.io_timeouts
  ConcurrentHistogram* m_latency_;  ///< io.request_us
  Gauge* m_inflight_;            ///< io.inflight
};

}  // namespace gnndrive
