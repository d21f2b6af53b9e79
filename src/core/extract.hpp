// Coalesced extraction fast path, shared by training (GnnDrive) and
// serving (ServeEngine).
//
// The extract stage of Algorithm 1 used to issue one direct SSD read per
// to-load node. Under the discrete-event device model
// (service = base_latency + len/bandwidth, ~80 us base at 2 GB/s) a 2-4 KiB
// feature row pays ~80 us of fixed per-request cost for ~1-2 us of data
// movement, so request count — not bandwidth — dominates extract time.
// This module applies the standard disk-based-GNN remedy (cf. Ginex):
//
//   1. sort the to-load set by on-disk feature offset (sorted runs),
//   2. greedily merge adjacent/overlapping sector-aligned covering ranges
//      into multi-row *segments*, bounded by `max_coalesce_bytes` and
//      `max_rows_per_read`, optionally jumping small gaps (`max_gap_bytes`
//      — reading a few wasted sectors is far cheaper than a second request
//      under the base-latency cost model),
//   3. carve each segment's exact bytes from the ring's staging arena
//      (StagingArena), issue one read per segment and, on completion,
//      scatter each contained row into its feature-buffer slot (one H2D per
//      row on GPU, memcpy on CPU, one on-device copy per segment under
//      GPUDirect Storage).
//
// Failure granularity stays the row, as in the per-node path: a transient
// error retries the whole segment (keeping its staging bytes); a multi-row
// segment that fails for good re-reads each of its rows once on its own,
// and only a row whose own read fails is marked failed and fails the batch.
// The rest of the batch still loads: other batches may wait on those rows.
// Rows that serving took over from a training load set (see
// core/feature_buffer.hpp) are skipped and waited on at the end.
// `coalesce.enabled = false` degenerates to one single-row segment per node
// — the planner and loop are the same code, so the A/B toggle compares pure
// I/O shapes.
//
// GPUDirect Storage (Sect. 4.4, `ExtractEnv::gds`) runs the same loop with
// a device-resident staging arena: segments are planned at 4 KiB alignment
// (the GDS access granularity) and land straight in device memory.
//
// Entry points:
//   * plan_segments()     — pure planning, property-tested in isolation.
//   * triage_batch()      — Algorithm 1 pass 1 via one batched lock take.
//   * extract_load_set()  — the submit/reap/retry/scatter loop.
//   * resolve_wait_list() — Algorithm 1 line 38, fault-tolerant.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "aio/io_ring.hpp"
#include "core/feature_buffer.hpp"
#include "graph/dataset.hpp"
#include "sampling/block.hpp"

namespace gnndrive {

class GpuDevice;
class Counter;
class Gauge;
class ConcurrentHistogram;
class Telemetry;

/// Coalescing knobs, shared verbatim by GnnDriveConfig and ServeConfig.
struct CoalesceConfig {
  /// Master toggle (the A/B flag): off falls back to one read per node
  /// through the same planner/loop with caps of one row.
  bool enabled = true;
  /// Upper bound on one merged read; also the ring's max transfer and the
  /// least a staging arena holds, so any segment fits. Rounded up to the
  /// sector size.
  std::uint32_t max_coalesce_bytes = 24 * 1024;
  /// Upper bound on feature rows per merged read.
  std::uint32_t max_rows_per_read = 64;
  /// Covering ranges closer than this merge across the hole (the wasted
  /// bytes are cheaper than a second request's base latency). 0 merges
  /// only strictly adjacent/overlapping ranges. The device model prices a
  /// gap at gap/(bandwidth/channels) of channel time against the base
  /// latency one fewer request saves, so the break-even gap is
  /// base_latency_us * bandwidth_mb_s / channels bytes (~10 KiB for the
  /// default device); the default sits just above it because extract
  /// latency also gains from the deeper effective row depth.
  std::uint32_t max_gap_bytes = 12 * 1024;
};

/// Read plan for one to-load set: rows grouped into per-read segments.
struct SegmentPlan {
  struct Row {
    std::uint32_t load_pos = 0;    ///< index into the caller's load_idx
    std::uint32_t seg_offset = 0;  ///< row's byte offset within its segment
  };
  struct Segment {
    std::uint64_t base = 0;       ///< sector-aligned disk offset
    std::uint32_t len = 0;        ///< sector-aligned read length
    std::uint32_t first_row = 0;  ///< range [first_row, first_row+num_rows)
    std::uint32_t num_rows = 0;   ///< ... into SegmentPlan::rows
  };
  std::vector<Row> rows;  ///< sorted by disk offset, grouped by segment
  std::vector<Segment> segments;
};

/// Worst-case length of an `align`-aligned read covering one row. Feature
/// regions are sector-aligned, so a row whose size is a sector multiple
/// starts on a sector boundary and straddles at most `align - kSectorSize`
/// bytes of its first block; any other row may start anywhere in it.
std::uint32_t covering_row_bytes(std::uint32_t row_bytes,
                                 std::uint32_t align);

/// Plans `align`-aligned covering reads for `load_idx` (indices into
/// `nodes`), sorted by disk offset and greedily merged under the caps.
/// `max_bytes` must admit `covering_row_bytes(row_bytes, align)`;
/// `max_rows >= 1`; ranges merge when the gap between consecutive covering
/// ranges is at most `max_gap_bytes`.
///
/// Offsets come from `lay.feature_offset_of`, i.e. they are *physical* row
/// positions under whatever layout plan is installed (src/layout). The
/// planner itself is layout-oblivious — a packed store simply presents it
/// with denser sorted runs, so the same greedy merge yields fewer, longer
/// segments.
SegmentPlan plan_segments(const std::vector<std::uint32_t>& load_idx,
                          const std::vector<NodeId>& nodes,
                          const OnDiskLayout& lay, std::uint32_t row_bytes,
                          std::uint32_t max_bytes, std::uint32_t max_rows,
                          std::uint32_t max_gap_bytes,
                          std::uint32_t align = kSectorSize);

/// Byte allocator over one ring's staging area. Each in-flight segment
/// holds its own bytes, rounded up to `align` (offsets stay aligned), and at
/// most `max_blocks` are out at once. First fit from the lowest offset;
/// a release merges with its free neighbours, so once everything is back
/// the arena is one free block again. Thread-safe: the extractor
/// allocates, and H2D completion callbacks release from the DMA thread.
class StagingArena : NonCopyable {
 public:
  StagingArena(std::uint64_t bytes, std::uint32_t max_blocks,
               std::uint32_t align);

  /// Offset of `len` free bytes, or nullopt when `max_blocks` are out or no
  /// free block is large enough.
  std::optional<std::uint64_t> allocate(std::uint32_t len);
  /// Returns bytes that allocate(len) handed out at `offset`.
  void release(std::uint64_t offset, std::uint32_t len);
  /// Blocks until allocate(len) would succeed (release wakes it) or until
  /// `deadline` (TimePoint::max(): none); true when it would succeed.
  bool wait_fit_until(std::uint32_t len, TimePoint deadline);

  std::uint64_t capacity() const { return capacity_; }
  std::size_t free_blocks() const;  ///< 1 when nothing is held

 private:
  bool fits_locked(std::uint64_t need) const;

  const std::uint32_t align_;
  const std::uint64_t capacity_;
  const std::uint32_t max_blocks_;
  mutable std::mutex mu_;
  std::condition_variable freed_;
  std::map<std::uint64_t, std::uint64_t> free_;  ///< offset -> length
  std::uint32_t blocks_ = 0;
};

/// The substrate one extraction runs against. All pointers are borrowed.
struct ExtractEnv {
  FeatureBuffer* fb = nullptr;
  const OnDiskLayout* layout = nullptr;
  std::uint32_t row_bytes = 0;          ///< exact feature row bytes
  IoRing* ring = nullptr;
  /// The ring's staging arena, staging_arena_bytes(staging_rows,
  /// staging_row_bytes) long.
  std::uint8_t* staging_base = nullptr;
  std::uint32_t staging_row_bytes = 0;  ///< largest segment (planning cap)
  std::uint32_t staging_rows = 0;       ///< cap on segments in flight
  GpuDevice* gpu = nullptr;             ///< null: host memcpy scatter
  Telemetry* telemetry = nullptr;       ///< optional (I/O-wait traces)
  /// GPUDirect Storage: the staging arena is device memory, segments are
  /// planned at kPageSize alignment, and each completed segment scatters
  /// with one on-device copy (GpuDevice::launch). Requires `gpu`.
  bool gds = false;
};

/// Fault/retry policy plus log identity for one extraction.
struct ExtractPolicy {
  CoalesceConfig coalesce;
  std::uint32_t max_retries = 3;
  Duration request_timeout{};           ///< watchdog cancel threshold
  Duration poll{};                      ///< wait_cqe_for granularity
  /// Delay before retry number `attempt` (1-based). Training installs
  /// jittered exponential backoff, serving a flat short delay; null means
  /// retry immediately.
  std::function<Duration(std::uint32_t attempt)> backoff;
  std::uint64_t batch_id = 0;           ///< for structured failure logs
  std::uint64_t epoch = 0;
  bool log_epoch = true;                ///< serve batches carry no epoch
  const char* fail_event = "extract_failed";
  /// Bound on waiting for a node another worker is loading. A loader always
  /// resolves its nodes (valid or failed), so this fires only if that
  /// worker died; the waiter then fails its batch instead of hanging.
  Duration wait_list_timeout{};
  FbClient client = FbClient::kTrain;  ///< fb.train.* or fb.serve.* triage
};

/// Sets a policy's timeouts from milliseconds. The watchdog polls at a
/// quarter of the request timeout (at least 500 us): often enough to catch
/// stuck requests well within it, rarely enough to stay off the fast path.
void set_timeouts(ExtractPolicy& policy, double request_timeout_ms,
                  double wait_list_timeout_ms);

/// Registry instruments for the coalescing fast path, resolved once per
/// worker by the caller (all optional).
struct ExtractMetricHooks {
  Counter* segments = nullptr;              ///< io.coalesce.segments
  Counter* rows = nullptr;                  ///< io.coalesce.rows
  ConcurrentHistogram* rows_per_read = nullptr;  ///< io.coalesce.rows_per_read
  Gauge* staging_in_use = nullptr;          ///< io.staging_in_use (bytes held)
  Counter* retries = nullptr;               ///< fault.io_retries
};

/// Every hook above resolved in `telemetry`'s registry (all null without
/// telemetry).
ExtractMetricHooks extract_metric_hooks(Telemetry* telemetry);

/// Accounting that extract_load_set adds to (training keeps one per
/// extractor for the epoch, serving one per batch).
struct ExtractCounters {
  std::uint64_t io_errors = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t io_recovered = 0;
  std::uint64_t io_timeouts = 0;
  std::uint64_t segments = 0;     ///< reads issued (first submissions)
  /// Feature rows delivered by those reads (load-set rows that serving
  /// took over are not among them).
  std::uint64_t rows_loaded = 0;
};

/// Tracing accumulators (nanoseconds), filled only while `tracing` is set.
struct ExtractTrace {
  bool tracing = false;
  std::uint64_t submit_ns = 0;
  std::uint64_t ssd_wait_ns = 0;
  std::uint64_t copy_wait_ns = 0;
};

/// Algorithm 1 pass 1 for a whole batch under one buffer-lock acquisition:
/// ready nodes alias immediately, in-flight nodes join `wait_idx`, absent
/// nodes join `load_idx`. Reference counts are taken for every node. When a
/// sealed hot partition exists, pinned nodes resolve lock-free (no slot
/// allocation, no reference) before the cold residue is triaged under the
/// lock; `client` attributes the lookups (fb.train.* / fb.serve.*).
void triage_batch(FeatureBuffer& fb, SampledBatch& batch,
                  std::vector<std::uint32_t>& wait_idx,
                  std::vector<std::uint32_t>& load_idx,
                  FbClient client = FbClient::kTrain);

/// Algorithm 1 pass 2 over `load_idx`: plan segments, allocate slots
/// (batched, one lock take per segment) and staging bytes, submit
/// asynchronous reads, scatter completed rows into the feature buffer,
/// retry transient failures per segment, re-read the rows of a segment that
/// failed for good one by one, and drain all transfers before
/// returning. A row that a serve lookup took over before it got a slot
/// (FeatureBuffer::allocate_slots hands it back without one) is left to
/// serving: a segment whose rows were all taken issues no read,
/// and the taken rows are waited on after the loop, as resolve_wait_list
/// does, within `policy.wait_list_timeout`. Returns false when the batch
/// failed permanently — every row this call loads is then resolved (valid
/// or failed), taken rows by their new loader, and the caller still owns
/// releasing all references.
bool extract_load_set(SampledBatch& batch,
                      const std::vector<std::uint32_t>& load_idx,
                      const ExtractEnv& env, const ExtractPolicy& policy,
                      const ExtractMetricHooks& hooks,
                      ExtractCounters& counters, ExtractTrace* trace);

/// Algorithm 1 line 38: waits for nodes other workers are loading. Returns
/// false when any of them failed or timed out (the caller fails its batch).
bool resolve_wait_list(FeatureBuffer& fb, SampledBatch& batch,
                       const std::vector<std::uint32_t>& wait_idx,
                       Duration timeout);

/// Algorithm 1 for one batch: triage under one buffer-lock take (lines
/// 5-19), extract_load_set over the to-load set (lines 20-31), then the
/// wait list (line 38). False when the batch failed; either way the caller
/// owns releasing its references. Training and serving both extract here.
bool extract_batch(SampledBatch& batch, const ExtractEnv& env,
                   const ExtractPolicy& policy,
                   const ExtractMetricHooks& hooks, ExtractCounters& counters,
                   ExtractTrace* trace);

/// Largest segment a configuration plans (the staging arena's allocation
/// ceiling and the ring's max transfer): the covering row when coalescing
/// is off, max_coalesce_bytes (sector-rounded, at least one covering row)
/// when on.
std::uint32_t staging_row_bytes_for(const CoalesceConfig& coalesce,
                                    std::uint32_t covering_row_bytes);

/// Cap on segments in flight per ring: `ring_depth` (at least 1), whether
/// or not reads coalesce — each segment takes only its own arena bytes, so
/// a wide segment costs bytes, not in-flight depth.
std::uint32_t staging_rows_for(const CoalesceConfig& coalesce,
                               std::uint32_t ring_depth);

/// Bytes of one ring's staging arena: a page per ring slot (planned reads
/// average a few KiB, far below the largest segment), never less than one
/// largest segment, so any plan makes progress, and never more than
/// `ring_depth` of them, which is all that can be in flight.
std::uint64_t staging_arena_bytes(std::uint32_t ring_depth,
                                  std::uint32_t max_segment_bytes);

}  // namespace gnndrive
