// The sectioned file format (util/sectioned_file) behind checkpoints and
// feature-layout plans.
//
// Golden files: one checkpoint generation of a tiny model (with its
// MANIFEST) and one 16-node degree plan, written by the code that predates
// the shared module. They must load with identical contents and be written
// again byte for byte.
//
// Fuzz: random byte strings; both golden files cut at every offset and with
// every single bit flipped; and CRC-corrected structural mutations (section
// counts up to UINT32_MAX, section lengths past the end or near UINT64_MAX,
// tensor shapes and set counts larger than their payload). Every read must
// return "corrupt" without throwing, aborting, or making one allocation
// larger than its input. The largest allocation is measured by replacing the
// global operator new, which is why this suite links into a binary of its
// own.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "layout/plan.hpp"
#include "util/crc32c.hpp"
#include "util/logging.hpp"
#include "util/sectioned_file.hpp"

namespace {

thread_local bool t_tracking = false;
thread_local std::size_t t_largest = 0;

void* allocate(std::size_t n) noexcept {
  if (t_tracking && n > t_largest) t_largest = n;
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler does not pair an inlined free() with the
// operator new it knows of and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable non-aligned form, so no allocation made through one is
// released through another's allocator.
void* operator new(std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace gnndrive {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<std::uint8_t>;

/// Records the largest single allocation this thread makes while it lives.
class AllocationProbe {
 public:
  AllocationProbe() {
    t_largest = 0;
    t_tracking = true;
  }
  ~AllocationProbe() { t_tracking = false; }
  AllocationProbe(const AllocationProbe&) = delete;
  AllocationProbe& operator=(const AllocationProbe&) = delete;
  std::size_t largest() const { return t_largest; }
};

// Written by CheckpointManager::write and LayoutPlan::save before the
// shared module existed; see make_golden_state() and golden_plan().
constexpr std::uint8_t kGoldenCheckpoint[580] = {
    0x47, 0x4e, 0x4e, 0x44, 0x43, 0x4b, 0x50, 0x31, 0x01, 0x00, 0x00, 0x00,
    0x06, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x37, 0xa7, 0x1c, 0x13, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x48, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x7b, 0x19, 0x38, 0x07, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x29, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0xce, 0xd1, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x54, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x72, 0x30, 0x73, 0xc7, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0xc0,
    0x00, 0x00, 0x78, 0xc0, 0x00, 0x00, 0x70, 0xc0, 0x00, 0x00, 0x68, 0xc0,
    0x00, 0x00, 0x60, 0xc0, 0x00, 0x00, 0x58, 0xc0, 0x03, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x08, 0x40,
    0x00, 0x00, 0x10, 0x40, 0x00, 0x00, 0x18, 0x40, 0x00, 0x00, 0x20, 0x40,
    0x00, 0x00, 0x28, 0x40, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x41, 0x00, 0x00, 0x02, 0x41, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x94, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x08, 0x6a, 0xda, 0xda, 0x00, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00, 0xf0, 0xbf,
    0x00, 0x00, 0xe0, 0xbf, 0x00, 0x00, 0xd0, 0xbf, 0x00, 0x00, 0xc0, 0xbf,
    0x00, 0x00, 0xb0, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3e,
    0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0xc0, 0x3e, 0x00, 0x00, 0x00, 0x3f,
    0x00, 0x00, 0x20, 0x3f, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x80, 0x40, 0x00, 0x00, 0x84, 0x40, 0x00, 0x00, 0x88, 0x40,
    0x00, 0x00, 0x8c, 0x40, 0x00, 0x00, 0x90, 0x40, 0x00, 0x00, 0x94, 0x40,
    0x00, 0x00, 0xc0, 0x40, 0x00, 0x00, 0xc4, 0x40, 0x00, 0x00, 0xc8, 0x40,
    0x00, 0x00, 0xcc, 0x40, 0x00, 0x00, 0xd0, 0x40, 0x00, 0x00, 0xd4, 0x40,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x41,
    0x00, 0x00, 0x22, 0x41, 0x00, 0x00, 0x40, 0x41, 0x00, 0x00, 0x42, 0x41,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4c, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x4c, 0x9a, 0x84, 0x16, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc9, 0xe9, 0x85, 0xe8,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x23, 0xd8, 0xb0, 0x65, 0x00, 0x00, 0x00, 0x00, 0xef, 0xcd, 0xab, 0x89,
    0x67, 0x45, 0x23, 0x01,
};
constexpr std::uint8_t kGoldenManifest[20] = {
    0x47, 0x4e, 0x4e, 0x44, 0x4d, 0x41, 0x4e, 0x31, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xb6, 0x2a, 0x66, 0xf9,
};
constexpr std::uint8_t kGoldenPlan[168] = {
    0x47, 0x4e, 0x4e, 0x44, 0x4c, 0x41, 0x59, 0x31, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xbb, 0xb1, 0xe3, 0x7c, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x18, 0xf5, 0x4f, 0xa9, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x10, 0x00, 0x00, 0x00, 0xed, 0x5e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xfd, 0x37, 0xc9, 0x56, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x08, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x07, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x06, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00,
};

constexpr char kCkptMagic[8] = {'G', 'N', 'N', 'D', 'C', 'K', 'P', '1'};
constexpr char kPlanMagic[8] = {'G', 'N', 'N', 'D', 'L', 'A', 'Y', '1'};
constexpr std::uint32_t kHotSetKind = 5;  ///< optional checkpoint sections
constexpr std::uint32_t kLayoutKind = 6;

template <std::size_t N>
Bytes bytes_of(const std::uint8_t (&a)[N]) {
  return Bytes(a, a + N);
}

ModelConfig golden_model_config() {
  ModelConfig mc;
  mc.kind = ModelKind::kSage;
  mc.in_dim = 3;
  mc.hidden_dim = 2;
  mc.num_classes = 2;
  mc.num_layers = 1;
  return mc;
}

ModelFingerprint golden_fingerprint() {
  return ModelFingerprint::from(golden_model_config(), 7, 16);
}

float golden_value(std::uint32_t param, std::uint32_t tensor, std::uint64_t i) {
  return static_cast<float>((param * 3 + tensor) * 16 + i) / 8.0f - 4.0f;
}

/// The state kGoldenCheckpoint holds: tensor k (value, m, v) of parameter p
/// holds golden_value(p, k, i) at element i.
void make_golden_state(GnnModel& model, Adam& adam) {
  std::uint32_t p_index = 0;
  for (Param* p : model.params()) {
    std::uint32_t k = 0;
    for (Tensor* t : {&p->value, &p->m, &p->v}) {
      for (std::uint64_t i = 0; i < t->size(); ++i) {
        t->data()[i] = golden_value(p_index, k, i);
      }
      ++k;
    }
    ++p_index;
  }
  adam.set_timestep(17);
}

LayoutPlan golden_plan() {
  LayoutPlan plan;
  plan.strategy = LayoutStrategy::kDegree;
  plan.num_nodes = 16;
  plan.dataset_seed = 0x5EED;
  for (NodeId v = 0; v < 16; ++v) plan.perm.push_back((v * 5 + 3) % 16);
  plan.inv = invert_permutation(plan.perm);
  return plan;
}

/// This process's scratch root (ctest runs the tests in parallel); each
/// test removes it when it ends.
std::string scratch_root() {
  return ::testing::TempDir() + "gnndrive-sectioned-" +
         std::to_string(::getpid());
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = scratch_root() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

template <typename T>
void poke(Bytes& img, std::size_t at, T v) {
  std::memcpy(img.data() + at, &v, sizeof(T));
}

struct SectionAt {
  std::uint32_t kind;
  std::size_t header;   ///< offset of the section header
  std::size_t payload;  ///< offset of the payload
  std::uint64_t bytes;
};

/// The sections of a well-formed image, walked with the documented layout.
std::vector<SectionAt> sections_of(const Bytes& img) {
  std::vector<SectionAt> out;
  for (std::size_t at = kFileHeaderBytes; at < img.size();) {
    SectionAt s{};
    std::memcpy(&s.kind, img.data() + at, 4);
    std::memcpy(&s.bytes, img.data() + at + 8, 8);
    s.header = at;
    s.payload = at + kSectionHeaderBytes;
    out.push_back(s);
    at = s.payload + s.bytes;
  }
  return out;
}

void reseal_header(Bytes& img) { poke(img, 24, crc32c(img.data(), 24)); }
void reseal(Bytes& img, const SectionAt& s) {
  poke(img, s.header + 16, crc32c(img.data() + s.payload, s.bytes));
}

/// Loads images as generation 1 of one checkpoint directory.
class CkptLoader {
 public:
  CkptLoader() : dir_(fresh_dir("ckpt")), mgr_(config(dir_)) {}

  /// Whether load_latest adopted `img`; `largest` gets the largest
  /// allocation it made.
  bool adopts(const Bytes& img, std::size_t* largest) {
    commit_file(dir_ + "/ckpt-1.gnnd", img, /*sync=*/false);
    AllocationProbe probe;
    const bool adopted =
        mgr_.load_latest(model_, &adam_, golden_fingerprint()).has_value();
    *largest = probe.largest();
    return adopted;
  }

 private:
  static CheckpointConfig config(const std::string& dir) {
    CheckpointConfig cfg;
    cfg.enabled = true;
    cfg.dir = dir;
    cfg.fsync = false;
    return cfg;
  }

  std::string dir_;
  CheckpointManager mgr_;
  GnnModel model_{golden_model_config()};
  Adam adam_;
};

/// Whether LayoutPlan::deserialize accepted `img`, with its largest
/// allocation.
bool plan_adopts(const Bytes& img, std::size_t* largest) {
  LayoutPlan plan;
  AllocationProbe probe;
  const bool ok = LayoutPlan::deserialize(img.data(), img.size(), &plan);
  *largest = probe.largest();
  return ok;
}

/// Reads may allocate a few small strings (paths, log lines) whatever the
/// input; beyond that, no allocation may exceed the input's size.
constexpr std::size_t kBookkeepingBytes = 4096;

/// Runs both readers over `img` and expects "corrupt" from each without a
/// throw and without an allocation larger than the input.
void expect_rejected(CkptLoader& ckpt, const Bytes& img,
                     const std::string& what) {
  SCOPED_TRACE(what);
  const std::size_t bound = std::max(img.size(), kBookkeepingBytes);
  std::size_t largest = 0;
  bool adopted = true;
  EXPECT_NO_THROW(adopted = ckpt.adopts(img, &largest));
  EXPECT_FALSE(adopted);
  EXPECT_LE(largest, bound);
  EXPECT_NO_THROW(adopted = plan_adopts(img, &largest));
  EXPECT_FALSE(adopted);
  EXPECT_LE(largest, bound);
}

struct SectionedFile : ::testing::Test {
  // Every rejected generation logs a warning; thousands would drown the
  // test log.
  void SetUp() override {
    saved_ = log_level();
    set_log_level(LogLevel::kError);
  }
  void TearDown() override {
    set_log_level(saved_);
    fs::remove_all(scratch_root());
  }
  LogLevel saved_ = LogLevel::kWarn;
};

// -- Golden files -------------------------------------------------------------

TEST_F(SectionedFile, GoldenCheckpointLoadsAndRewritesByteIdentical) {
  const std::string dir = fresh_dir("golden-ckpt");
  commit_file(dir + "/ckpt-1.gnnd", bytes_of(kGoldenCheckpoint), false);
  commit_file(dir + "/MANIFEST", bytes_of(kGoldenManifest), false);
  CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  CheckpointManager mgr(cfg);
  EXPECT_EQ(mgr.manifest_generation(), 1u);

  GnnModel model(golden_model_config());
  Adam adam;
  const auto loaded = mgr.load_latest(model, &adam, golden_fingerprint());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->fallbacks, 0u);
  const TrainCursor& c = loaded->cursor;
  EXPECT_EQ(c.epoch, 2u);
  EXPECT_EQ(c.next_batch, 5u);
  EXPECT_EQ(c.trained_batches, 41u);
  EXPECT_EQ(c.fingerprint, golden_fingerprint());
  ASSERT_EQ(c.rng_streams.size(), 2u);
  EXPECT_EQ(c.rng_streams[0].id, 0u);
  EXPECT_EQ(c.rng_streams[0].state, (RngState{1, 2, 3, 4}));
  EXPECT_EQ(c.rng_streams[1].id, 3u);
  EXPECT_EQ(c.rng_streams[1].state, (RngState{5, 6, 7, 8}));
  EXPECT_EQ(c.hot_set, (std::vector<NodeId>{9, 2, 11}));
  EXPECT_EQ(c.layout_fingerprint, 0x0123456789ABCDEFull);
  EXPECT_EQ(adam.timestep(), 17u);
  std::uint32_t p_index = 0;
  for (Param* p : model.params()) {
    std::uint32_t k = 0;
    for (Tensor* t : {&p->value, &p->m, &p->v}) {
      for (std::uint64_t i = 0; i < t->size(); ++i) {
        ASSERT_EQ(t->data()[i], golden_value(p_index, k, i))
            << "param " << p_index << " tensor " << k << " element " << i;
      }
      ++k;
    }
    ++p_index;
  }

  // Written again from what was loaded: the same bytes.
  CheckpointConfig again = cfg;
  again.dir = fresh_dir("golden-ckpt-rewrite");
  CheckpointManager writer(again);
  ASSERT_EQ(writer.write(c, model, adam), 1u);
  EXPECT_EQ(read_file(again.dir + "/ckpt-1.gnnd"), bytes_of(kGoldenCheckpoint));
  EXPECT_EQ(read_file(again.dir + "/MANIFEST"), bytes_of(kGoldenManifest));

  // And from state built from scratch, as the golden file was.
  GnnModel fresh(golden_model_config());
  Adam fresh_adam;
  make_golden_state(fresh, fresh_adam);
  again.dir = fresh_dir("golden-ckpt-fresh");
  CheckpointManager fresh_writer(again);
  TrainCursor cursor;
  cursor.epoch = 2;
  cursor.next_batch = 5;
  cursor.trained_batches = 41;
  cursor.fingerprint = golden_fingerprint();
  cursor.rng_streams = {RngStream{0, {1, 2, 3, 4}}, RngStream{3, {5, 6, 7, 8}}};
  cursor.hot_set = {9, 2, 11};
  cursor.layout_fingerprint = 0x0123456789ABCDEFull;
  ASSERT_EQ(fresh_writer.write(cursor, fresh, fresh_adam), 1u);
  EXPECT_EQ(read_file(again.dir + "/ckpt-1.gnnd"), bytes_of(kGoldenCheckpoint));
}

TEST_F(SectionedFile, GoldenPlanLoadsAndRewritesByteIdentical) {
  const Bytes golden = bytes_of(kGoldenPlan);
  const LayoutPlan expect = golden_plan();
  LayoutPlan back;
  ASSERT_TRUE(LayoutPlan::deserialize(golden.data(), golden.size(), &back));
  EXPECT_EQ(back.strategy, LayoutStrategy::kDegree);
  EXPECT_EQ(back.num_nodes, 16u);
  EXPECT_EQ(back.dataset_seed, 0x5EEDu);
  EXPECT_EQ(back.profile_seed, 0u);
  EXPECT_EQ(back.perm, expect.perm);
  EXPECT_EQ(back.inv, expect.inv);
  EXPECT_EQ(back.serialize(), golden);
  EXPECT_EQ(expect.serialize(), golden);

  const std::string path = fresh_dir("golden-plan") + "/degree.plan";
  ASSERT_TRUE(back.save(path));
  EXPECT_EQ(read_file(path), golden);
  LayoutPlan loaded;
  ASSERT_TRUE(LayoutPlan::load(path, &loaded));
  EXPECT_EQ(loaded.perm, expect.perm);
  EXPECT_EQ(loaded.fingerprint(), expect.fingerprint());
}

// -- Fuzz ---------------------------------------------------------------------

TEST_F(SectionedFile, RandomBytesAreRejected) {
  CkptLoader ckpt;
  std::mt19937_64 rng(20261020);
  const auto random_bytes = [&](std::size_t n) {
    Bytes b(n);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng());
    return b;
  };
  for (int i = 0; i < 600; ++i) {
    // Noise; noise behind a valid magic; and CRC-valid sections of random
    // kinds holding noise, behind a valid header.
    expect_rejected(ckpt, random_bytes(rng() % 300), "noise " +
                                                         std::to_string(i));
    for (const char(*magic)[8] : {&kCkptMagic, &kPlanMagic}) {
      Bytes b = random_bytes(rng() % 300);
      b.insert(b.begin(), *magic, *magic + 8);
      expect_rejected(ckpt, b, "magic + noise " + std::to_string(i));

      SectionWriter w(*magic, 1);
      for (std::uint64_t s = rng() % 8; s > 0; --s) {
        w.begin(static_cast<std::uint32_t>(rng() % 8));
        const Bytes payload = random_bytes(rng() % 100);
        w.put_bytes(payload.data(), payload.size());
      }
      expect_rejected(ckpt, w.finish(), "sections " + std::to_string(i));
    }
  }
}

TEST_F(SectionedFile, TruncationsAndBitFlipsAreRejected) {
  CkptLoader ckpt;
  std::size_t largest = 0;
  const Bytes golden_ckpt = bytes_of(kGoldenCheckpoint);
  const Bytes golden_plan_bytes = bytes_of(kGoldenPlan);
  ASSERT_TRUE(ckpt.adopts(golden_ckpt, &largest));
  // The probe sees the loader's read of the whole file: it is live.
  EXPECT_GE(largest, golden_ckpt.size());
  ASSERT_TRUE(plan_adopts(golden_plan_bytes, &largest));

  for (const bool is_ckpt : {true, false}) {
    const Bytes& golden = is_ckpt ? golden_ckpt : golden_plan_bytes;
    const auto adopts = [&](const Bytes& img) {
      std::size_t most = 0;
      bool adopted = true;
      EXPECT_NO_THROW(adopted = is_ckpt ? ckpt.adopts(img, &most)
                                        : plan_adopts(img, &most));
      EXPECT_LE(most, std::max(img.size(), kBookkeepingBytes));
      return adopted;
    };
    for (std::size_t len = 0; len < golden.size(); ++len) {
      EXPECT_FALSE(adopts(Bytes(golden.begin(), golden.begin() + len)))
          << (is_ckpt ? "checkpoint" : "plan") << " cut at " << len;
    }

    // No CRC covers the header's tail padding, a section header's reserved
    // and padding words, or its kind; a flipped kind is caught only where a
    // required section goes missing, so optional sections may drop out.
    std::vector<bool> unguarded(golden.size(), false);
    const auto mark = [&](std::size_t at, std::size_t n) {
      for (std::size_t i = at; i < at + n; ++i) unguarded[i] = true;
    };
    mark(28, 4);
    for (const SectionAt& s : sections_of(golden)) {
      mark(s.header + 4, 4);
      mark(s.header + 20, 4);
      if (is_ckpt && (s.kind == kHotSetKind || s.kind == kLayoutKind)) {
        mark(s.header, 4);
      }
    }
    for (std::size_t at = 0; at < golden.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes img = golden;
        img[at] ^= static_cast<std::uint8_t>(1u << bit);
        if (adopts(img)) {
          EXPECT_TRUE(unguarded[at])
              << (is_ckpt ? "checkpoint" : "plan") << " adopted with bit "
              << bit << " of byte " << at << " flipped";
        }
      }
    }
  }
}

TEST_F(SectionedFile, StructuralMutationsAreRejected) {
  CkptLoader ckpt;
  constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
  constexpr std::uint32_t kU32Max = ~std::uint32_t{0};
  for (const Bytes& golden :
       {bytes_of(kGoldenCheckpoint), bytes_of(kGoldenPlan)}) {
    const std::vector<SectionAt> sections = sections_of(golden);
    const auto count = static_cast<std::uint32_t>(sections.size());

    // Section counts beyond the sections present, or none at all.
    for (const std::uint32_t n : {0u, count + 1, 0x10000u, 0x7FFFFFFFu,
                                  kU32Max}) {
      Bytes img = golden;
      poke(img, 12, n);
      reseal_header(img);
      expect_rejected(ckpt, img, "section count " + std::to_string(n));
    }

    for (const SectionAt& s : sections) {
      const std::string where = "section kind " + std::to_string(s.kind);
      // Lengths past the end of the file or near UINT64_MAX.
      const std::uint64_t to_end = golden.size() - s.payload;
      for (const std::uint64_t len :
           {to_end + 1, to_end + (std::uint64_t{1} << 32),
            std::uint64_t{1} << 63, kU64Max - kSectionHeaderBytes + 1,
            kU64Max}) {
        Bytes img = golden;
        poke(img, s.header + 8, len);
        expect_rejected(ckpt, img, where + " length " + std::to_string(len));
      }
      // A payload one byte short, with its CRC recomputed.
      Bytes img = golden;
      SectionAt shorter = s;
      --shorter.bytes;
      poke(img, s.header + 8, shorter.bytes);
      reseal(img, shorter);
      expect_rejected(ckpt, img, where + " one byte short");
    }
  }

  // Tensor shapes, tensor counts and set counts larger than their payload,
  // CRC-corrected: a u32 count or dimension at `at` in a checkpoint
  // section's payload. A tensor count or shape one smaller is corrupt too
  // (the model's shapes no longer match); a set one smaller is not
  // detectable, as trailing payload bytes are ignored.
  const Bytes golden = bytes_of(kGoldenCheckpoint);
  const std::vector<SectionAt> sections = sections_of(golden);
  struct Field {
    std::uint32_t kind;
    std::size_t at;
    const char* name;
    bool tensor;
  };
  const Field fields[] = {
      {2, 0, "params count", true}, {2, 4, "params rows", true},
      {2, 8, "params cols", true},  {3, 8, "adam count", true},
      {3, 12, "adam rows", true},   {3, 16, "adam cols", true},
      {4, 0, "rng count", false},   {5, 0, "hot set count", false},
  };
  for (const Field& f : fields) {
    for (const SectionAt& s : sections) {
      if (s.kind != f.kind) continue;
      std::uint32_t was = 0;
      std::memcpy(&was, golden.data() + s.payload + f.at, 4);
      std::vector<std::uint32_t> values = {was + 1, 0x10000u, 0x7FFFFFFFu,
                                           kU32Max};
      if (f.tensor) values.push_back(was - 1);
      for (const std::uint32_t v : values) {
        Bytes img = golden;
        poke(img, s.payload + f.at, v);
        reseal(img, s);
        expect_rejected(ckpt, img,
                        std::string(f.name) + " " + std::to_string(v));
      }
    }
  }

  // Plan: a node count other than the permutation's length, and a strategy
  // out of range.
  const Bytes plan = bytes_of(kGoldenPlan);
  const SectionAt meta = sections_of(plan)[0];
  for (const std::uint32_t n : {15u, 17u, kU32Max}) {
    Bytes img = plan;
    poke(img, meta.payload + 4, n);
    reseal(img, meta);
    expect_rejected(ckpt, img, "plan num_nodes " + std::to_string(n));
  }
  Bytes img = plan;
  poke(img, meta.payload, std::uint32_t{3});
  reseal(img, meta);
  expect_rejected(ckpt, img, "plan strategy 3");
}

TEST_F(SectionedFile, CursorChecksCountsBeforeAllocating) {
  const std::uint8_t buf[12] = {1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0};
  std::vector<std::uint32_t> out;
  {
    ByteCursor c(buf, sizeof(buf));
    AllocationProbe probe;
    // count × 4 wraps to 0 in 64 bits; the check must not.
    EXPECT_FALSE(c.read_array(std::uint64_t{1} << 62, &out));
    EXPECT_FALSE(c.ok());
    EXPECT_EQ(probe.largest(), 0u);
  }
  EXPECT_EQ(out.capacity(), 0u);
  ByteCursor c(buf, sizeof(buf));
  EXPECT_TRUE(c.read_array(2, &out));
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_FALSE(c.read_array(2, &out));  // 4 bytes left
  std::uint32_t v = 0;
  EXPECT_FALSE(c.read(&v));  // latched: the next read fails too
  EXPECT_FALSE(ByteCursor(buf, sizeof(buf)).skip(~std::uint64_t{0}));
}

// -- Durable commit -----------------------------------------------------------

TEST_F(SectionedFile, ThrowMidCommitKeepsTheOlderPlan) {
  const std::string path = fresh_dir("commit") + "/layout.plan";
  const LayoutPlan older = golden_plan();
  ASSERT_TRUE(older.save(path));

  LayoutPlan newer = make_identity_plan(64, 1);
  newer.strategy = LayoutStrategy::kHotness;
  std::reverse(newer.perm.begin(), newer.perm.end());
  newer.inv = invert_permutation(newer.perm);
  struct Crash {};
  EXPECT_THROW(commit_file(path, newer.serialize(), /*sync=*/true,
                           {.half_written = [] { throw Crash{}; }}),
               Crash);

  // The torn temp file is left behind but never adopted.
  EXPECT_TRUE(fs::exists(path + ".tmp"));
  EXPECT_EQ(read_file(path), older.serialize());
  LayoutPlan loaded;
  ASSERT_TRUE(LayoutPlan::load(path, &loaded));
  EXPECT_EQ(loaded.perm, older.perm);

  // The next save replaces both.
  ASSERT_TRUE(newer.save(path));
  ASSERT_TRUE(LayoutPlan::load(path, &loaded));
  EXPECT_EQ(loaded.perm, newer.perm);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

}  // namespace
}  // namespace gnndrive
