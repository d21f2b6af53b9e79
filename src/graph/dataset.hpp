// Datasets: scaled stand-ins for the paper's graphs, laid out on the
// simulated SSD exactly as the paper stores them.
//
// On-"disk" layout (offsets 512 B-aligned):
//   [indices]  CSC index array, int64 per edge (the paper's systems store
//              int64 indices; this keeps topology:feature byte ratios right)
//   [features] packed float32 rows, num_nodes x feature_dim
//   [labels]   int32 per node
//   [scratch]  spill space: Ginex's per-superbatch sampling results,
//              MariusGNN's partition shuffles
// The index-pointer array (indptr) stays in host memory, as in the paper
// ("it occupies less than 1GB and is frequently accessed in the sample
// stage"); so do labels and the train/valid splits.
//
// Scale conventions (see DESIGN.md): node counts are paper / 500; simulated
// host-memory "GB" = 2 MiB; default mini-batch is paper / 250.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "layout/plan.hpp"
#include "storage/ssd.hpp"
#include "util/common.hpp"

namespace gnndrive {

/// Simulated bytes for a paper-reported "GB" of host or device memory.
inline constexpr std::uint64_t kBytesPerPaperGB = 2ull << 20;
inline std::uint64_t paper_gb(double gb) {
  return static_cast<std::uint64_t>(gb * static_cast<double>(kBytesPerPaperGB));
}
/// Mini-batch scale: paper batch 1000 -> 4 seeds here.
inline constexpr std::uint32_t kBatchScale = 250;

struct DatasetSpec {
  std::string name;
  NodeId num_nodes = 0;
  EdgeId num_edges = 0;
  std::uint32_t feature_dim = 128;
  std::uint32_t num_classes = 16;
  double train_fraction = 0.01;
  double intra_prob = 0.6;
  /// Endpoint-sampling skew exponent (CommunityGraphParams::skew): node =
  /// N * u^skew, so larger values concentrate edges — and therefore sampler
  /// traffic — on low-id nodes. 1.0 is near-uniform; the generator default
  /// 2.0 matches real-graph power-law degree tails. Cache-policy benches
  /// sweep this to control access-frequency skew.
  double skew = 2.0;
  /// Scramble node ids with a seeded permutation after edge generation
  /// (CommunityGraphParams::scramble_ids). The skewed pick concentrates
  /// degree on low ids, so unscrambled id order coincides with degree order
  /// — real graphs have no such correlation. Layout experiments
  /// (bench/layout_sweep) enable this so the identity layout means what it
  /// means on Papers100M: feature rows in id order, scattered w.r.t. access
  /// frequency.
  bool scramble_ids = false;
  std::uint64_t seed = 42;

  std::uint64_t feature_row_bytes() const { return feature_dim * 4ull; }
  std::uint64_t features_bytes() const {
    return static_cast<std::uint64_t>(num_nodes) * feature_row_bytes();
  }
  std::uint64_t indices_bytes() const { return num_edges * 8ull; }
};

/// Registry of the paper's four datasets at mini scale. Accepted names:
/// "papers100m", "twitter", "friendster", "mag240m" (a "-mini" suffix is
/// tolerated). `feature_dim == 0` keeps the dataset's default dimension.
DatasetSpec mini_spec(const std::string& name, std::uint32_t feature_dim = 0);

/// Tiny spec for unit tests.
DatasetSpec toy_spec(std::uint32_t feature_dim = 16);

struct OnDiskLayout {
  std::uint64_t indices_offset = 0;
  std::uint64_t indices_bytes = 0;
  std::uint64_t features_offset = 0;
  std::uint64_t features_bytes = 0;
  std::uint64_t feature_row_bytes = 0;
  std::uint64_t labels_offset = 0;
  std::uint64_t labels_bytes = 0;
  std::uint64_t scratch_offset = 0;
  std::uint64_t scratch_bytes = 0;
  std::uint64_t total_bytes = 0;

  /// Installed layout plan (src/layout): when non-null the feature region is
  /// physically stored in `plan->perm` order and `row_perm` aliases
  /// `plan->perm.data()` (the shared_ptr keeps it alive across Dataset
  /// copies). Null means identity: physical row == node id. This is THE
  /// indirection choke point — every consumer (extract planning, GDS path,
  /// cache prefetch, baselines, serve) computes offsets through the
  /// accessors below and is therefore layout-transparent.
  std::shared_ptr<const LayoutPlan> plan;
  const NodeId* row_perm = nullptr;

  /// Physical feature row holding node `v`'s features.
  std::uint64_t feature_row_of(NodeId v) const {
    return row_perm != nullptr ? static_cast<std::uint64_t>(row_perm[v])
                               : static_cast<std::uint64_t>(v);
  }
  /// Byte offset of node `v`'s feature row. All arithmetic is 64-bit: with
  /// NodeId near 2^32 and row_bytes 512, node * row_bytes overflows 32 bits
  /// by ~9 orders of magnitude, hence the casts before multiply.
  std::uint64_t feature_offset_of(NodeId v) const {
    return features_offset + feature_row_of(v) * feature_row_bytes;
  }
  /// Node stored at physical feature row `row` (the plan's inverse).
  NodeId node_at_row(std::uint64_t row) const {
    return row_perm != nullptr ? plan->inv[row] : static_cast<NodeId>(row);
  }
  /// Byte offset of a *physical* row index (bulk/partition readers that
  /// iterate the packed store directly, e.g. MariusGNN partition loads).
  std::uint64_t feature_offset_of_row(std::uint64_t row) const {
    return features_offset + row * feature_row_bytes;
  }
  /// Plan content hash; 0 for identity / no plan. Stored in checkpoints so
  /// resume() refuses to mix a cursor with a differently-packed image.
  std::uint64_t layout_fingerprint() const {
    return plan != nullptr ? plan->fingerprint() : 0;
  }
};

/// A fully built dataset: host-resident metadata plus a shared SSD image.
/// Experiment runs create their own SsdDevice over `image()` so device
/// state/stats are per-run while the (possibly large) data is generated once.
class Dataset {
 public:
  /// Generates the graph, features, labels and splits, and writes the image.
  /// `keep_graph` retains the in-memory CSC for ground-truth tests.
  static Dataset build(const DatasetSpec& spec, bool keep_graph = false);

  const DatasetSpec& spec() const { return spec_; }
  const OnDiskLayout& layout() const { return layout_; }

  /// Currently installed layout plan; null means identity order.
  const std::shared_ptr<const LayoutPlan>& layout_plan() const {
    return layout_.plan;
  }
  /// Installs `plan` as the layout indirection. The image's feature region
  /// must already be physically permuted to match — callers go through
  /// compile_layout (src/layout/compiler.hpp), which rewrites the region and
  /// then installs. Null or identity-strategy plans clear the indirection.
  void set_layout_plan(std::shared_ptr<const LayoutPlan> plan);
  const std::vector<EdgeId>& indptr() const { return indptr_; }
  const std::vector<std::int32_t>& labels() const { return labels_; }
  const std::vector<NodeId>& train_nodes() const { return train_nodes_; }
  const std::vector<NodeId>& valid_nodes() const { return valid_nodes_; }

  std::uint64_t in_degree(NodeId v) const {
    return indptr_[v + 1] - indptr_[v];
  }

  const std::shared_ptr<MemBackend>& image() const { return image_; }
  /// Fresh device over the shared image.
  std::unique_ptr<SsdDevice> make_device(const SsdConfig& cfg) const {
    return std::make_unique<SsdDevice>(cfg, image_);
  }

  /// Ground truth helpers (bypass the device model; tests & setup only).
  void read_feature_row(NodeId v, float* out) const;
  std::vector<NodeId> read_neighbors(NodeId v) const;

  /// Host-resident bytes a training system must pin for this dataset
  /// (indptr + labels + splits).
  std::uint64_t host_metadata_bytes() const;

  /// In-memory CSC, present when built with keep_graph.
  const std::optional<CscGraph>& csc() const { return csc_; }

 private:
  DatasetSpec spec_;
  OnDiskLayout layout_;
  std::vector<EdgeId> indptr_;
  std::vector<std::int32_t> labels_;
  std::vector<NodeId> train_nodes_;
  std::vector<NodeId> valid_nodes_;
  std::shared_ptr<MemBackend> image_;
  std::optional<CscGraph> csc_;
};

}  // namespace gnndrive
