// Simulated OS page cache.
//
// Buffered (non-direct) access to the simulated SSD goes through this cache:
// 4 KiB pages, LRU replacement, capacity = host budget minus pinned bytes.
// A miss performs a synchronous modeled device read (the faulting thread
// really blocks, and the wait is attributed to TraceCat::kIoWait); a hit is
// served from the backing image directly.
//
// This cache is the arena where the paper's memory contention plays out:
// PyG+ memory-maps both topology and features through it, so feature traffic
// evicts topology pages and sampling slows down; GNNDrive reads features with
// direct I/O and leaves the cache to topology alone.
#pragma once

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "memsim/host_memory.hpp"
#include "obs/metrics.hpp"
#include "storage/ssd.hpp"
#include "util/common.hpp"
#include "util/telemetry.hpp"

namespace gnndrive {

struct PageCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  double hit_ratio() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class PageCache : NonCopyable {
 public:
  /// The cache sizes itself dynamically from `mem.available()`; it pins
  /// nothing itself. Its counts live in the pagecache.* counters of
  /// `telemetry`'s registry (or of one it owns without telemetry), which
  /// stats() reads; the attributor diagnoses thrash from the same counters.
  PageCache(HostMemory& mem, SsdDevice& ssd, Telemetry* telemetry = nullptr);

  /// Copies `len` bytes at device offset `offset` into `dst`, faulting the
  /// covering pages through the modeled device as needed.
  void read(std::uint64_t offset, std::uint64_t len, void* dst);

  /// Ensures the covering pages are resident without copying data out
  /// (read-ahead / warm-up helper).
  void prefetch(std::uint64_t offset, std::uint64_t len);

  /// If every covering page is resident, copies the bytes out (counting
  /// hits, touching LRU) and returns true; otherwise counts misses and
  /// returns false with `dst` untouched. Used by asynchronous buffered I/O.
  bool try_read_resident(std::uint64_t offset, std::uint64_t len, void* dst);

  /// Marks the covering pages resident without charging device time (the
  /// caller already performed the device read, e.g. an async buffered fault).
  void note_resident(std::uint64_t offset, std::uint64_t len);

  /// Drops every cached page (used between experiment runs).
  void invalidate_all();

  bool contains_page(std::uint64_t page_no) const;
  std::uint64_t resident_pages() const;
  std::uint64_t capacity_pages() const;
  /// Monotonic since construction; diff two reads for a window.
  PageCacheStats stats() const;

 private:
  /// Makes `page_no` resident; returns true on hit. Called with mu_ held;
  /// may release and re-acquire it around the device read.
  bool fault_page(std::unique_lock<std::mutex>& lock, std::uint64_t page_no);
  void evict_to_capacity_locked();

  HostMemory& mem_;
  SsdDevice& ssd_;
  Telemetry* telemetry_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* hits_;       ///< pagecache.hits
  Counter* misses_;     ///< pagecache.misses
  Counter* evictions_;  ///< pagecache.evictions
  /// pagecache.fault_wait_us: wall time callers spent blocked in
  /// fault_page (device reads + waits on another thread's load). The
  /// attributor reads its windowed delta as the cache's stall cost.
  Counter* fault_wait_us_;
  Counter* io_errors_;   ///< fault.io_errors
  Counter* io_retries_;  ///< fault.io_retries

  mutable std::mutex mu_;
  std::condition_variable load_done_;
  // LRU: map page -> iterator into list (list front == LRU).
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      resident_;
  std::unordered_set<std::uint64_t> loading_;
};

}  // namespace gnndrive
