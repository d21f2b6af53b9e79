// Feature-layout plans: a bijective node -> physical-row permutation for the
// on-disk feature region, produced offline by the layout compiler
// (src/layout/compiler.*) and consulted online by
// OnDiskLayout::feature_offset_of so every consumer — train extractors,
// serve workers, cache prefetch, baselines — transparently reads the packed
// store.
//
// Why permute at all: the SSD model charges a fixed base latency per request,
// so extraction cost tracks the *number* of reads, not bytes. The PR-5
// coalescer can only merge rows adjacent in physical order; the shipped
// node-id order scatters a mini-batch's rows across the whole feature region.
// Packing hot / co-accessed rows into a dense head turns each sorted to-load
// set into a few long runs the coalescer folds into single requests
// (DiskGNN's offline reordering, Ginex's superbatch preprocessing).
//
// Plans are stored in the sectioned format of util/sectioned_file, shared
// with checkpoints (CRC32C-guarded header and sections, unknown sections
// skipped), and saved through its durable temp -> fsync -> rename commit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace gnndrive {

enum class LayoutStrategy : std::uint32_t {
  kIdentity = 0,  ///< Shipped node-id order; the A/B baseline.
  kDegree = 1,    ///< In-degree descending (ties: node id ascending).
  kHotness = 2,   ///< presample_hot_set access-frequency descending.
};

const char* layout_strategy_name(LayoutStrategy s);
/// Parses "identity" / "degree" / "hotness"; returns false on anything else.
bool parse_layout_strategy(const std::string& name, LayoutStrategy* out);

/// A compiled layout: `perm[node]` is the physical feature row holding that
/// node's features; `inv[row]` is the node stored at that row. Both are full
/// bijections over [0, num_nodes) — identity-strategy plans keep them
/// populated too, so validate()/round-trip tests treat all strategies alike,
/// but fingerprint() collapses identity to 0 (no plan installed == explicit
/// identity plan, which is what checkpoint compatibility wants).
struct LayoutPlan {
  LayoutStrategy strategy = LayoutStrategy::kIdentity;
  NodeId num_nodes = 0;
  std::uint64_t dataset_seed = 0;  ///< DatasetSpec::seed the plan was built for.
  std::uint64_t profile_seed = 0;  ///< Hotness profiling seed (0 otherwise).
  std::vector<NodeId> perm;  ///< node -> physical row
  std::vector<NodeId> inv;   ///< physical row -> node

  bool is_identity() const { return strategy == LayoutStrategy::kIdentity; }

  /// True iff perm/inv are consistent full bijections over [0, num_nodes).
  bool validate() const;

  /// Stable content hash stored in checkpoints (TrainCursor) so resume can
  /// refuse a mismatched layout. Identity-strategy plans hash to 0 by
  /// definition: a dataset with no plan installed and one compiled to an
  /// explicit identity plan hold byte-identical images.
  std::uint64_t fingerprint() const;

  /// CRC32C-sectioned binary encoding (magic "GNNDLAY1"); deserialize
  /// rebuilds `inv` and rejects corrupt or non-bijective payloads.
  std::vector<std::uint8_t> serialize() const;
  static bool deserialize(const std::uint8_t* data, std::size_t len,
                          LayoutPlan* out);

  /// File round-trip for the tools/ entry point. save() returns false on I/O
  /// failure and replaces the file durably: a crash mid-save leaves the
  /// previous plan. load() additionally fails on any deserialize() rejection.
  bool save(const std::string& path) const;
  static bool load(const std::string& path, LayoutPlan* out);
};

/// Builds the trivial plan (perm[v] == v). Used as the A/B baseline and to
/// revert a packed image back to shipped order.
LayoutPlan make_identity_plan(NodeId num_nodes, std::uint64_t dataset_seed);

/// Builds `inv` from `perm` (or vice versa). Dies on non-bijective input.
std::vector<NodeId> invert_permutation(const std::vector<NodeId>& perm);

}  // namespace gnndrive
