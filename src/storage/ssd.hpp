// Simulated solid-state drive.
//
// The paper's experiments run against a SAMSUNG PM883 SATA SSD (and an Intel
// DC S3510 on the multi-GPU box). This environment has no dedicated storage
// device, so the SSD is modeled as a discrete-event device that completes
// requests on a *wall-clock* schedule:
//
//   service_time = base_latency(op) + length / per_channel_bandwidth
//
// with `channels` independent service channels (internal NAND parallelism).
// Requests wait in one FIFO per I/O class (IoClass) and start when a channel
// frees; the latency class goes first, with a bounded starvation window for
// the throughput class (ChannelArbiter). A request's completion time is its
// modeled start + service; with a single class that start is
// max(submit, earliest_free_channel). Because completions happen in real
// time on a device thread, synchronous callers genuinely block for the
// modeled latency and asynchronous callers genuinely overlap — the exact
// mechanism Appendix A/B of the paper measures.
//
// Data is held by a backend (RAM image by default; a real file optionally),
// so reads return real bytes and extraction correctness is testable.
//
// Fault model: an optional seeded FaultInjector perturbs requests at submit
// time — per-request EIO, latency spikes, stuck requests (never complete
// until cancelled) and targeted bad-sector ranges. Completions carry a
// result code (bytes transferred or -errno) so callers see failures instead
// of asserting; see DESIGN.md "Fault model & recovery".
#pragma once

#include <array>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace gnndrive {

class Telemetry;

/// Storage for the simulated drive's contents. read/write return 0 on
/// success or a negative errno (e.g. -EIO) on failure; partial transfers
/// are handled inside the backend.
class SsdBackend {
 public:
  virtual ~SsdBackend() = default;
  virtual std::int32_t read(std::uint64_t offset, std::uint32_t len,
                            void* dst) = 0;
  virtual std::int32_t write(std::uint64_t offset, std::uint32_t len,
                             const void* src) = 0;
  virtual std::uint64_t size() const = 0;
};

/// RAM-image backend: deterministic and fast; the default for experiments.
class MemBackend final : public SsdBackend {
 public:
  explicit MemBackend(std::uint64_t size) : data_(size) {}
  std::int32_t read(std::uint64_t offset, std::uint32_t len,
                    void* dst) override {
    GD_CHECK(offset + len <= data_.size());
    std::memcpy(dst, data_.data() + offset, len);
    return 0;
  }
  std::int32_t write(std::uint64_t offset, std::uint32_t len,
                     const void* src) override {
    GD_CHECK(offset + len <= data_.size());
    std::memcpy(data_.data() + offset, src, len);
    return 0;
  }
  std::uint64_t size() const override { return data_.size(); }
  /// Direct access for cheap dataset initialization (bypasses the device
  /// model; only used before an experiment starts).
  std::uint8_t* raw() { return data_.data(); }

 private:
  std::vector<std::uint8_t> data_;
};

/// Real-file backend: pread/pwrite against a file on the host filesystem.
/// Short transfers are looped, EINTR is retried, and real errno failures
/// surface as negative return values instead of aborting the process.
class FileBackend final : public SsdBackend {
 public:
  /// Creates (or truncates) `path` with `size` bytes.
  FileBackend(const std::string& path, std::uint64_t size);
  ~FileBackend() override;
  std::int32_t read(std::uint64_t offset, std::uint32_t len,
                    void* dst) override;
  std::int32_t write(std::uint64_t offset, std::uint32_t len,
                     const void* src) override;
  std::uint64_t size() const override { return size_; }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

struct SsdConfig {
  double read_latency_us = 80.0;    ///< Base service latency per read.
  double write_latency_us = 25.0;   ///< Base service latency per write.
  double bandwidth_mb_s = 2000.0;   ///< Aggregate device bandwidth.
  unsigned channels = 16;           ///< Internal parallelism.
  double time_scale = 1.0;          ///< Multiplier on all service times.
};

/// Fault-injection knobs. Disabled by default; the device takes no extra
/// locked work per request while `enabled` is false. Deterministic per seed:
/// the same request sequence produces the same fault sequence.
struct SsdFaultConfig {
  bool enabled = false;
  std::uint64_t seed = 0xfa417ULL;
  double eio_probability = 0.0;    ///< per-request chance of -EIO
  double spike_probability = 0.0;  ///< per-request chance of a latency spike
  double spike_multiplier = 20.0;  ///< service-time multiplier for spikes
  double stuck_probability = 0.0;  ///< request never completes (until cancel)
  struct Range {
    std::uint64_t begin = 0;  ///< byte offset, inclusive
    std::uint64_t end = 0;    ///< byte offset, exclusive
  };
  /// Requests intersecting any range fail with -EIO deterministically,
  /// regardless of eio_probability (media errors pinned to an address).
  std::vector<Range> bad_ranges;
};

/// Arbitration class of a device request. The latency class holds requests
/// a thread blocks on — read_sync/write_sync (every page-cache fault) and
/// the serve rings; the throughput class holds bulk traffic — training
/// extraction, hot-set prefetch and the baselines' rings.
enum class IoClass : std::uint8_t { kThroughput = 0, kLatency = 1 };
inline constexpr std::size_t kIoClasses = 2;
/// "throughput" / "latency": the class segment of the ssd.<class>.* names.
const char* io_class_name(IoClass io_class);

/// Per-class device accounting.
struct SsdClassStats {
  std::uint64_t reads = 0;          ///< read requests submitted
  double queue_wait_seconds = 0.0;  ///< sum of modeled start - submit
};

struct SsdStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Sum of per-channel service time, charged when a request starts.
  double busy_seconds = 0.0;
  // Fault-injection accounting (all zero when the injector is off).
  std::uint64_t injected_eio = 0;    ///< requests failed with -EIO
  std::uint64_t injected_spikes = 0; ///< requests given a latency spike
  std::uint64_t injected_stuck = 0;  ///< requests that will never complete
  std::uint64_t cancelled = 0;       ///< requests removed via try_cancel
  /// Indexed by IoClass; the classes' reads sum to `reads`.
  std::array<SsdClassStats, kIoClasses> by_class{};
  const SsdClassStats& of(IoClass c) const {
    return by_class[static_cast<std::size_t>(c)];
  }
};

/// Seeded, deterministic per-request fault decision maker. Owned by the
/// device; callers configure it through SsdDevice::set_fault_config.
class FaultInjector {
 public:
  explicit FaultInjector(const SsdFaultConfig& config)
      : config_(config), rng_(splitmix64(config.seed)) {}

  struct Decision {
    std::int32_t res = 0;            ///< 0 ok; -EIO for injected failures
    double latency_multiplier = 1.0; ///< >1 for injected spikes
    bool stuck = false;              ///< request never completes
  };
  /// One decision per request; advances the RNG deterministically.
  Decision decide(bool is_read, std::uint64_t offset, std::uint32_t len);

  const SsdFaultConfig& config() const { return config_; }

 private:
  SsdFaultConfig config_;
  Rng rng_;
};

/// The device's dispatch decision, on given timestamps: it reads no clock,
/// so a recorded request trace replays deterministically. Requests wait in
/// one FIFO per class; each dispatch starts one request on the channel that
/// frees earliest, choosing among the requests already waiting at that
/// instant. The latency class goes first, except that a throughput request
/// waits behind at most kLatencyBurst consecutive latency starts. A channel
/// that frees with nothing waiting idles until the next arrival. With one
/// class the schedule is exactly start = max(submit, earliest-free channel).
/// Not synchronized: the device calls it under its lock.
class ChannelArbiter {
 public:
  /// Starvation bound W: the most latency requests that start in a row
  /// while a throughput request waits. Under a continuous latency stream a
  /// waiting throughput request still starts within W + 1 dispatches, so
  /// bulk traffic keeps at least 1/9 of the device's starts.
  static constexpr unsigned kLatencyBurst = 8;

  struct Request {
    std::uint64_t token = 0;
    TimePoint submit;
    Duration service{};
    IoClass io_class = IoClass::kThroughput;
  };
  struct Start {
    std::uint64_t token = 0;
    IoClass io_class = IoClass::kThroughput;
    TimePoint submit;
    TimePoint start;
    TimePoint done;
    Duration service{};
  };

  /// Every channel is free from `origin` on.
  ChannelArbiter(unsigned channels, TimePoint origin);

  /// Queues `request` at the tail of its class FIFO. Submit times must not
  /// decrease across calls.
  void enqueue(const Request& request);
  /// Starts the next request if the earliest-free channel frees by `now`
  /// and a request waits; its channel stays busy until the returned `done`.
  std::optional<Start> dispatch(TimePoint now);
  /// Removes a request that has not started: it never takes a channel.
  /// False when `token` is not queued (started, or unknown).
  bool cancel(std::uint64_t token);

  bool idle() const { return queues_[0].empty() && queues_[1].empty(); }
  /// When the earliest-free channel frees (the next dispatch opportunity).
  TimePoint next_free() const;

 private:
  std::vector<TimePoint> channel_free_;
  std::array<std::deque<Request>, kIoClasses> queues_;
  unsigned latency_streak_ = 0;  ///< latency starts while throughput waited
};

class SsdDevice : NonCopyable {
 public:
  enum class Op { kRead, kWrite };

  /// Completion callback: res >= 0 is bytes transferred, res < 0 is -errno.
  using Completion = std::function<void(std::int32_t res)>;

  SsdDevice(SsdConfig config, std::shared_ptr<SsdBackend> backend);
  ~SsdDevice();

  /// Submits an asynchronous request in `io_class`. `on_complete` runs on
  /// the device thread after the modeled service time elapses and the data
  /// movement happened; it must be cheap and must not call back into the
  /// device. Returns a token usable with try_cancel().
  std::uint64_t submit(Op op, std::uint64_t offset, std::uint32_t len,
                       void* buf, Completion on_complete,
                       IoClass io_class = IoClass::kThroughput);

  /// Cancels a submitted-but-not-yet-completed request. Returns true when
  /// the request was still pending: its buffer will never be touched and its
  /// completion will never run (the caller owns synthesizing an error). A
  /// request cancelled before it started leaves its class queue without
  /// taking a channel or busy time; one already in service keeps its
  /// channel until its modeled completion. Returns false when the request
  /// already completed or is completing.
  bool try_cancel(std::uint64_t token);

  /// Convenience synchronous operations (submit + block until completion),
  /// in the latency class. Return bytes transferred or -errno. A request
  /// that never completes (injected stuck) is self-cancelled after a
  /// generous deadline and returns -ETIMEDOUT, so synchronous callers
  /// cannot hang forever either.
  std::int32_t read_sync(std::uint64_t offset, std::uint32_t len, void* dst);
  std::int32_t write_sync(std::uint64_t offset, std::uint32_t len,
                          const void* src);

  /// Blocks until every submitted request has completed or been cancelled.
  /// Note: an injected *stuck* request counts as outstanding until a caller
  /// cancels it.
  void drain();

  /// Installs (enabled) or removes (disabled) the fault injector. Runtime
  /// togglable; takes effect for subsequently submitted requests. An
  /// enabled config is validated first — probabilities must lie in [0, 1]
  /// (NaN rejected), spike_multiplier in [1, 1e6], and bad_ranges must be
  /// non-empty intervals — and a bad value throws std::invalid_argument
  /// without touching the installed injector.
  void set_fault_config(const SsdFaultConfig& config);
  SsdFaultConfig fault_config() const;

  const SsdConfig& config() const { return config_; }
  SsdBackend& backend() { return *backend_; }
  /// Monotonic since construction; diff two reads for a window.
  SsdStats stats() const;

  /// Mirrors SsdStats into `telemetry`'s metrics registry under "ssd.*"
  /// counters (reads, writes, bytes_read, bytes_written, busy_us,
  /// injected_eio, injected_spikes, injected_stuck, cancelled, and per
  /// class ssd.<class>.reads and ssd.<class>.queue_wait_us), updated at
  /// every submit, start and cancel. Until then, and after nullptr, the
  /// mirror goes to a registry the device owns.
  void set_telemetry(Telemetry* telemetry);

  /// Modeled service time for a request of `len` bytes (no queueing).
  Duration service_time(Op op, std::uint32_t len) const;

 private:
  struct Pending {
    Op op;
    std::uint64_t offset;
    std::uint32_t len;
    void* buf;
    Completion on_complete;
    std::int32_t injected_res = 0;  ///< <0: fail without data movement
    bool stuck = false;
  };
  /// A started (or stuck) request's completion time.
  struct Due {
    TimePoint at;
    std::uint64_t token;
    bool operator>(const Due& other) const { return at > other.at; }
  };

  void device_loop();
  /// Starts every queued request whose channel is free by `now`.
  void dispatch_locked(TimePoint now);
  /// When the device thread next has work: the earliest completion, or,
  /// while requests queue, the next channel free.
  TimePoint next_event_locked() const;
  /// Publishes stats_ into the ssd.* counters.
  void mirror_stats_locked();

  const SsdConfig config_;
  std::shared_ptr<SsdBackend> backend_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_;
  ChannelArbiter arbiter_;
  /// Submitted requests not yet completed or cancelled, by token. A Due
  /// entry whose token is gone here was cancelled (lazy heap deletion).
  std::unordered_map<std::uint64_t, Pending> live_;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due_;
  std::size_t in_flight_ = 0;
  std::uint64_t next_token_ = 1;
  bool stop_ = false;
  SsdStats stats_;
  std::unique_ptr<FaultInjector> injector_;  ///< null when faults are off

  // Observability mirror: a view of stats_, resolved from the telemetry's
  // registry by set_telemetry() or from own_metrics_.
  MetricsRegistry own_metrics_;
  struct StatCounters {
    Counter* reads;
    Counter* writes;
    Counter* bytes_read;
    Counter* bytes_written;
    Counter* busy_us;
    Counter* injected_eio;
    Counter* injected_spikes;
    Counter* injected_stuck;
    Counter* cancelled;
    std::array<Counter*, kIoClasses> class_reads;       ///< ssd.<class>.reads
    std::array<Counter*, kIoClasses> class_queue_wait;  ///< ...queue_wait_us
    Gauge* pending;  ///< ssd.pending (device queue depth)
  } m_;

  std::thread device_thread_;
};

}  // namespace gnndrive
