// Belady (MIN) oracle comparator for the feature-cache A/B bench.
//
// Replays a recorded epoch-0 access trace through three cache simulators:
//
//   * simulate_lru      — mirrors the FeatureBuffer's standby discipline
//                         (nodes of the in-flight batch are referenced and
//                         unevictable; retired slots rejoin at the MRU end)
//                         without its look-ahead: no wanted tier and no
//                         rides, so the live buffer's hit rate can exceed it,
//   * simulate_hotness  — a pinned always-resident hot set over an LRU cold
//                         remainder of (slots - |hot|),
//   * simulate_belady   — Belady's optimal replacement: evict the resident
//                         node whose next use lies farthest in the future.
//
// The oracle knows the whole future and ignores the batch-pinning
// constraint real extraction must honour, so its hit rate is a (slightly
// optimistic) upper bound no realizable policy can beat — exactly the
// comparator role it plays in bench/cache_policy.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dataset.hpp"
#include "sampling/sampler.hpp"

namespace gnndrive {

class PageCache;

/// Per-mini-batch node access sets, in epoch order (deduplicated within a
/// batch, like a triaged load set).
using AccessTrace = std::vector<std::vector<NodeId>>;

/// Samples the exact mini-batch sequence run_epoch(epoch) would extract —
/// same shuffle seed (splitmix64(run_seed ^ (epoch+1))) and batch-id stream
/// (((epoch+1)<<24) | b) — and records each batch's node set. `max_batches`
/// truncates the trace (0 = whole epoch).
AccessTrace record_access_trace(const Dataset& dataset, PageCache& page_cache,
                                const SamplerConfig& sampler_config,
                                std::uint32_t batch_seeds,
                                std::uint64_t run_seed, std::uint64_t epoch,
                                std::uint32_t max_batches = 0);

struct CacheSimResult {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  double hit_rate() const {
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
  }
};

/// LRU with the FeatureBuffer's batch semantics, modelling the standby list
/// without look-ahead (no hints from queued batches, no rides). Requires
/// `slots` to cover the largest batch (the real buffer's deadlock-freedom
/// precondition).
CacheSimResult simulate_lru(const AccessTrace& trace, std::uint64_t slots);

/// Pinned hot set + LRU over the remaining (slots - hot.size()) slots.
CacheSimResult simulate_hotness(const AccessTrace& trace, std::uint64_t slots,
                                const std::vector<NodeId>& hot);

/// Belady's MIN over the flattened access stream.
CacheSimResult simulate_belady(const AccessTrace& trace, std::uint64_t slots);

}  // namespace gnndrive
