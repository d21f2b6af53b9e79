#include "layout/plan.hpp"

#include <numeric>
#include <stdexcept>

#include "util/crc32c.hpp"
#include "util/sectioned_file.hpp"

namespace gnndrive {

namespace {

constexpr char kMagic[8] = {'G', 'N', 'N', 'D', 'L', 'A', 'Y', '1'};

constexpr std::uint32_t kSecMeta = 1;  ///< strategy/num_nodes/seeds
constexpr std::uint32_t kSecPerm = 2;  ///< node -> row permutation array

struct MetaPayload {
  std::uint32_t strategy;
  std::uint32_t num_nodes;
  std::uint64_t dataset_seed;
  std::uint64_t profile_seed;
};

MetaPayload meta_of(const LayoutPlan& plan) {
  return {static_cast<std::uint32_t>(plan.strategy), plan.num_nodes,
          plan.dataset_seed, plan.profile_seed};
}

}  // namespace

const char* layout_strategy_name(LayoutStrategy s) {
  switch (s) {
    case LayoutStrategy::kIdentity:
      return "identity";
    case LayoutStrategy::kDegree:
      return "degree";
    case LayoutStrategy::kHotness:
      return "hotness";
  }
  return "unknown";
}

bool parse_layout_strategy(const std::string& name, LayoutStrategy* out) {
  if (name == "identity") {
    *out = LayoutStrategy::kIdentity;
  } else if (name == "degree") {
    *out = LayoutStrategy::kDegree;
  } else if (name == "hotness") {
    *out = LayoutStrategy::kHotness;
  } else {
    return false;
  }
  return true;
}

bool LayoutPlan::validate() const {
  if (perm.size() != num_nodes || inv.size() != num_nodes) return false;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const NodeId row = perm[v];
    if (row >= num_nodes) return false;
    if (inv[row] != v) return false;  // with sizes equal, implies bijection
  }
  return true;
}

std::uint64_t LayoutPlan::fingerprint() const {
  if (is_identity()) return 0;
  const MetaPayload meta = meta_of(*this);
  const std::uint64_t hi = crc32c(&meta, sizeof(meta));
  const std::uint64_t lo =
      crc32c(perm.data(), perm.size() * sizeof(NodeId));
  std::uint64_t fp = (hi << 32) | lo;
  if (fp == 0) fp = 1;  // 0 is reserved for "identity / no plan"
  return fp;
}

std::vector<std::uint8_t> LayoutPlan::serialize() const {
  SectionWriter w(kMagic, /*tag=*/0);
  w.begin(kSecMeta);
  w.put(meta_of(*this));
  w.begin(kSecPerm);
  w.put_bytes(perm.data(), perm.size() * sizeof(NodeId));
  return w.finish();
}

bool LayoutPlan::deserialize(const std::uint8_t* data, std::size_t len,
                             LayoutPlan* out) {
  LayoutPlan plan;
  bool saw_meta = false;
  bool saw_perm = false;
  const auto tag = read_sections(
      data, len, kMagic, [&](std::uint32_t kind, ByteCursor& pr) {
        switch (kind) {
          case kSecMeta: {
            MetaPayload meta{};
            if (pr.remaining() != sizeof(meta) || !pr.read(&meta) ||
                meta.strategy >
                    static_cast<std::uint32_t>(LayoutStrategy::kHotness)) {
              return false;
            }
            plan.strategy = static_cast<LayoutStrategy>(meta.strategy);
            plan.num_nodes = meta.num_nodes;
            plan.dataset_seed = meta.dataset_seed;
            plan.profile_seed = meta.profile_seed;
            saw_meta = true;
            return true;
          }
          case kSecPerm:
            saw_perm = true;
            return pr.remaining() % sizeof(NodeId) == 0 &&
                   pr.read_array(pr.remaining() / sizeof(NodeId), &plan.perm);
          default:
            return true;  // a kind from a newer writer: skipped
        }
      });
  if (!tag || !saw_meta || !saw_perm) return false;
  if (plan.perm.size() != plan.num_nodes) return false;

  // Rebuild the inverse and reject non-bijective payloads in one pass.
  plan.inv.assign(plan.num_nodes, plan.num_nodes);
  for (NodeId v = 0; v < plan.num_nodes; ++v) {
    const NodeId row = plan.perm[v];
    if (row >= plan.num_nodes) return false;
    if (plan.inv[row] != plan.num_nodes) return false;  // duplicate row
    plan.inv[row] = v;
  }
  *out = std::move(plan);
  return true;
}

bool LayoutPlan::save(const std::string& path) const {
  try {
    commit_file(path, serialize(), /*sync=*/true);
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

bool LayoutPlan::load(const std::string& path, LayoutPlan* out) {
  const auto bytes = read_file(path);
  return bytes && deserialize(bytes->data(), bytes->size(), out);
}

LayoutPlan make_identity_plan(NodeId num_nodes, std::uint64_t dataset_seed) {
  LayoutPlan plan;
  plan.strategy = LayoutStrategy::kIdentity;
  plan.num_nodes = num_nodes;
  plan.dataset_seed = dataset_seed;
  plan.perm.resize(num_nodes);
  std::iota(plan.perm.begin(), plan.perm.end(), NodeId{0});
  plan.inv = plan.perm;
  return plan;
}

std::vector<NodeId> invert_permutation(const std::vector<NodeId>& perm) {
  const auto n = static_cast<NodeId>(perm.size());
  std::vector<NodeId> inv(n, n);
  for (NodeId i = 0; i < n; ++i) {
    GD_CHECK_MSG(perm[i] < n, "invert_permutation: value out of range");
    GD_CHECK_MSG(inv[perm[i]] == n, "invert_permutation: duplicate value");
    inv[perm[i]] = i;
  }
  return inv;
}

}  // namespace gnndrive
