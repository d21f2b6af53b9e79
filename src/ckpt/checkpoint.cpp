#include "ckpt/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"
#include "util/crc32c.hpp"
#include "util/logging.hpp"
#include "util/sectioned_file.hpp"
#include "util/telemetry.hpp"

namespace fs = std::filesystem;

namespace gnndrive {

namespace {

constexpr char kFileMagic[8] = {'G', 'N', 'N', 'D', 'C', 'K', 'P', '1'};
constexpr char kManifestMagic[8] = {'G', 'N', 'N', 'D', 'M', 'A', 'N', '1'};
constexpr const char* kManifestName = "MANIFEST";
constexpr std::size_t kManifestBytes = 20;  ///< magic, generation u64, CRC

// Section kinds, in file order.
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecParams = 2;
constexpr std::uint32_t kSecAdam = 3;
constexpr std::uint32_t kSecRng = 4;
constexpr std::uint32_t kSecHotSet = 5;  ///< pinned hot-partition node ids
constexpr std::uint32_t kSecLayout = 6;  ///< feature-layout plan fingerprint
// Every writer of this format has written the first four, and no CRC covers
// a section's kind: one of them missing is a flipped kind bit, which would
// otherwise resume without optimizer or RNG state.
constexpr std::uint32_t kRequiredSections =
    1u << kSecMeta | 1u << kSecParams | 1u << kSecAdam | 1u << kSecRng;

std::optional<std::uint64_t> parse_generation(const std::string& name) {
  // ckpt-<digits>.gnnd
  constexpr const char* prefix = "ckpt-";
  constexpr const char* suffix = ".gnnd";
  if (name.size() <= 5 + 5 || name.rfind(prefix, 0) != 0) return std::nullopt;
  if (name.substr(name.size() - 5) != suffix) return std::nullopt;
  const std::string digits = name.substr(5, name.size() - 10);
  if (digits.empty()) return std::nullopt;
  std::uint64_t gen = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    gen = gen * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return gen;
}

using Shapes = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Tensors staged off to the side until the whole file validated: each
/// tensor's (rows, cols), and `planes` arrays of rows x cols floats per
/// tensor (1 for parameters; Adam's m then v), concatenated in file order.
struct StagedTensors {
  Shapes shapes;
  std::vector<float> data;
};

bool read_tensors(ByteCursor& pr, int planes, StagedTensors* out) {
  std::uint32_t count = 0;
  // Each tensor takes at least its 8-byte shape, so a count the payload
  // cannot hold is rejected before it sizes anything.
  if (!pr.read(&count) || count > pr.remaining() / 8) return false;
  out->shapes.reserve(count);
  out->data.reserve(pr.remaining() / sizeof(float));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    if (!pr.read(&rows) || !pr.read(&cols)) return false;
    out->shapes.emplace_back(rows, cols);
    for (int p = 0; p < planes; ++p) {
      if (!pr.read_array(std::uint64_t{rows} * cols, &out->data)) return false;
    }
  }
  return true;
}

struct ParsedCkpt {
  TrainCursor cursor;
  StagedTensors params;
  StagedTensors adam;
  std::uint64_t adam_t = 0;
};

/// False when the image is corrupt. A valid image of another run throws:
/// identity is a caller error, not media corruption, so it is refused
/// loudly instead of falling back.
bool parse_checkpoint(const std::vector<std::uint8_t>& img,
                      std::uint64_t expect_gen,
                      const ModelFingerprint& expect, const Shapes& shapes,
                      ParsedCkpt& out) {
  std::uint32_t seen = 0;  ///< bit k: a section of kind k parsed
  const auto tag = read_sections(
      img.data(), img.size(), kFileMagic,
      [&](std::uint32_t kind, ByteCursor& pr) {
        if (kind < 32) seen |= 1u << kind;
        TrainCursor& c = out.cursor;
        switch (kind) {
          case kSecMeta:
            return pr.read(&c.epoch) && pr.read(&c.next_batch) &&
                   pr.read(&c.trained_batches) && pr.read(&c.fingerprint);
          case kSecParams:
            return read_tensors(pr, 1, &out.params);
          case kSecAdam:
            return pr.read(&out.adam_t) && read_tensors(pr, 2, &out.adam);
          case kSecRng: {
            std::uint32_t count = 0;
            if (!pr.read(&count)) return false;
            for (std::uint32_t i = 0; i < count; ++i) {
              RngStream stream;
              if (!pr.read(&stream.id) || !pr.read(&stream.state)) {
                return false;
              }
              c.rng_streams.push_back(stream);
            }
            return true;
          }
          case kSecHotSet: {
            std::uint32_t count = 0;
            return pr.read(&count) && pr.read_array(count, &c.hot_set);
          }
          case kSecLayout:
            return pr.read(&c.layout_fingerprint);
          default:
            return true;  // a kind from a newer writer: skipped
        }
      });
  if (tag != expect_gen || (seen & kRequiredSections) != kRequiredSections) {
    return false;
  }
  if (!(out.cursor.fingerprint == expect)) {
    throw std::runtime_error(
        "checkpoint: generation " + std::to_string(expect_gen) +
        " belongs to a different run/model configuration");
  }
  // The fingerprinted configuration fixes every shape, so a mismatch is a
  // malformed file.
  return out.params.shapes == shapes && out.adam.shapes == shapes;
}

}  // namespace

const char* ckpt_phase_name(CkptPhase phase) {
  switch (phase) {
    case CkptPhase::kAfterTempOpen: return "after_temp_open";
    case CkptPhase::kTornSectionWrite: return "torn_section_write";
    case CkptPhase::kAfterTempWrite: return "after_temp_write";
    case CkptPhase::kAfterTempFsync: return "after_temp_fsync";
    case CkptPhase::kAfterDataRename: return "after_data_rename";
    case CkptPhase::kAfterManifestTemp: return "after_manifest_temp";
    case CkptPhase::kAfterManifestRename: return "after_manifest_rename";
    case CkptPhase::kCount: break;
  }
  return "?";
}

CrashInjected::CrashInjected(CkptPhase phase, std::uint64_t generation)
    : std::runtime_error(std::string("injected checkpoint crash at ") +
                         ckpt_phase_name(phase) + " of generation " +
                         std::to_string(generation)),
      phase_(phase), generation_(generation) {}

void CrashInjector::check(CkptPhase phase, std::uint64_t generation) {
  if (fired_ || phase != phase_) return;
  if (at_generation_ != 0 && generation != at_generation_) return;
  fired_ = true;
  throw CrashInjected(phase, generation);
}

ModelFingerprint ModelFingerprint::from(const ModelConfig& mc,
                                        std::uint64_t run_seed,
                                        std::uint32_t batch_seeds) {
  ModelFingerprint fp;
  fp.kind = static_cast<std::uint32_t>(mc.kind);
  fp.in_dim = mc.in_dim;
  fp.hidden_dim = mc.hidden_dim;
  fp.num_classes = mc.num_classes;
  fp.num_layers = mc.num_layers;
  fp.gat_heads = mc.gat_heads;
  fp.model_seed = mc.seed;
  fp.run_seed = run_seed;
  fp.batch_seeds = batch_seeds;
  return fp;
}

CheckpointManager::CheckpointManager(CheckpointConfig config,
                                     Telemetry* telemetry)
    : config_(std::move(config)), telemetry_(telemetry) {
  GD_CHECK_MSG(!config_.dir.empty(), "CheckpointManager needs a directory");
  config_.keep_last = std::max(config_.keep_last, 1u);
  MetricsRegistry& reg = registry_or_own(telemetry, owned_metrics_);
  m_writes_ = &reg.counter("ckpt.writes");
  m_bytes_ = &reg.counter("ckpt.bytes_written");
  m_restores_ = &reg.counter("ckpt.restores");
  m_fallbacks_ = &reg.counter("ckpt.fallbacks");
  m_crashes_ = &reg.counter("ckpt.crashes_injected");
  m_generation_ = &reg.gauge("ckpt.generation");
  m_retained_ = &reg.gauge("ckpt.retained");
  m_write_us_ = &reg.histogram("ckpt.write.us");
}

std::string CheckpointManager::data_path(std::uint64_t gen) const {
  return config_.dir + "/ckpt-" + std::to_string(gen) + ".gnnd";
}

std::vector<std::uint64_t> CheckpointManager::generations() const {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (auto gen = parse_generation(entry.path().filename().string())) {
      gens.push_back(*gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::uint64_t CheckpointManager::manifest_generation() const {
  const auto buf = read_file(config_.dir + "/" + kManifestName);
  if (!buf || buf->size() < kManifestBytes ||
      std::memcmp(buf->data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return 0;
  }
  std::uint64_t gen = 0;
  std::uint32_t crc = 0;
  std::memcpy(&gen, buf->data() + 8, sizeof(gen));
  std::memcpy(&crc, buf->data() + 16, sizeof(crc));
  return crc32c(buf->data(), 16) == crc ? gen : 0;
}

void CheckpointManager::crash_point(CkptPhase phase, std::uint64_t gen) {
  if (crash_ == nullptr) return;
  try {
    crash_->check(phase, gen);
  } catch (const CrashInjected&) {
    m_crashes_->add();
    throw;
  }
}

std::uint64_t CheckpointManager::write(const TrainCursor& cursor,
                                       GnnModel& model, Adam& adam) {
  const TimePoint t0 = Clock::now();
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: mkdir " + config_.dir + ": " +
                             ec.message());
  }

  // Generation = newest complete file (or manifest, whichever is larger)
  // + 1; a temp file left by a crashed predecessor is simply overwritten.
  if (next_generation_ == 0) {
    const auto gens = generations();
    const std::uint64_t newest = gens.empty() ? 0 : gens.back();
    next_generation_ = std::max(newest, manifest_generation()) + 1;
  }
  const std::uint64_t gen = next_generation_;

  // Serialize everything into one image: header + CRC'd sections.
  SectionWriter w(kFileMagic, gen);
  w.begin(kSecMeta);
  w.put(cursor.epoch);
  w.put(cursor.next_batch);
  w.put(cursor.trained_batches);
  // Field by field, so the struct's 4 tail bytes of padding go out as zeros.
  const ModelFingerprint& fp = cursor.fingerprint;
  for (std::uint32_t v : {fp.kind, fp.in_dim, fp.hidden_dim, fp.num_classes,
                          fp.num_layers, fp.gat_heads}) {
    w.put(v);
  }
  w.put(fp.model_seed);
  w.put(fp.run_seed);
  w.put(fp.batch_seeds);
  w.put(std::uint32_t{0});

  const auto& params = model.params();
  w.begin(kSecParams);
  w.put(static_cast<std::uint32_t>(params.size()));
  for (const Param* p : params) {
    w.put(p->value.rows());
    w.put(p->value.cols());
    w.put_bytes(p->value.data(), p->value.bytes());
  }

  w.begin(kSecAdam);
  w.put(adam.timestep());
  w.put(static_cast<std::uint32_t>(params.size()));
  for (const Param* p : params) {
    w.put(p->m.rows());
    w.put(p->m.cols());
    w.put_bytes(p->m.data(), p->m.bytes());
    w.put_bytes(p->v.data(), p->v.bytes());
  }

  w.begin(kSecRng);
  w.put(static_cast<std::uint32_t>(cursor.rng_streams.size()));
  for (const RngStream& s : cursor.rng_streams) {
    w.put(s.id);
    w.put(s.state);
  }

  w.begin(kSecHotSet);
  w.put(static_cast<std::uint32_t>(cursor.hot_set.size()));
  w.put_bytes(cursor.hot_set.data(), cursor.hot_set.size() * sizeof(NodeId));

  w.begin(kSecLayout);
  w.put(cursor.layout_fingerprint);
  const std::vector<std::uint8_t> img = w.finish();

  // Atomic protocol: the data file's durable commit, then the manifest's,
  // then retention. CrashInjector fires between phases.
  commit_file(data_path(gen), img, config_.fsync,
              {.opened = [&] { crash_point(CkptPhase::kAfterTempOpen, gen); },
               .half_written =
                   [&] { crash_point(CkptPhase::kTornSectionWrite, gen); },
               .written =
                   [&] {
                     crash_point(CkptPhase::kAfterTempWrite, gen);
                     // commit_file fsynced before close (when configured).
                     crash_point(CkptPhase::kAfterTempFsync, gen);
                   }});
  crash_point(CkptPhase::kAfterDataRename, gen);
  write_manifest(gen);
  crash_point(CkptPhase::kAfterManifestRename, gen);
  prune(gen);
  next_generation_ = gen + 1;

  const double us = to_seconds(Clock::now() - t0) * 1e6;
  m_writes_->add();
  m_bytes_->add(img.size());
  m_generation_->set(static_cast<std::int64_t>(gen));
  m_write_us_->add_us(us);
  if (telemetry_ != nullptr && telemetry_->tracing()) {
    const TimePoint t1 = Clock::now();
    telemetry_->tracer()->record(kSpanCkptWrite, gen,
                                 static_cast<std::uint32_t>(cursor.epoch), t0,
                                 t1);
  }
  log_structured(LogLevel::kInfo, "ckpt_write",
                 {kv("generation", gen), kv("epoch", cursor.epoch),
                  kv("next_batch", cursor.next_batch),
                  kv("bytes", img.size()), kv("us", us)});
  return gen;
}

void CheckpointManager::write_manifest(std::uint64_t gen) {
  std::vector<std::uint8_t> buf(kManifestBytes);
  std::memcpy(buf.data(), kManifestMagic, sizeof(kManifestMagic));
  std::memcpy(buf.data() + 8, &gen, sizeof(gen));
  const std::uint32_t crc = crc32c(buf.data(), 16);
  std::memcpy(buf.data() + 16, &crc, sizeof(crc));
  commit_file(config_.dir + "/" + kManifestName, buf, config_.fsync,
              {.written = [&] {
                crash_point(CkptPhase::kAfterManifestTemp, gen);
              }});
}

void CheckpointManager::prune(std::uint64_t newest) {
  auto gens = generations();
  std::error_code ec;
  // Keep the newest keep_last complete generations; drop stray temp files.
  if (gens.size() > config_.keep_last) {
    for (std::size_t i = 0; i + config_.keep_last < gens.size(); ++i) {
      if (gens[i] == newest) continue;
      fs::remove(data_path(gens[i]), ec);
    }
  }
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      fs::remove(entry.path(), ec);
    }
  }
  m_retained_->set(static_cast<std::int64_t>(
      std::min<std::size_t>(gens.size(), config_.keep_last)));
}

std::optional<CheckpointManager::LoadResult> CheckpointManager::load_latest(
    GnnModel& model, Adam* adam, const ModelFingerprint& expect) {
  auto gens = generations();
  std::sort(gens.begin(), gens.end(), std::greater<>());
  std::uint32_t fallbacks = 0;
  const auto& params = model.params();
  Shapes shapes;
  for (const Param* p : params) {
    shapes.emplace_back(p->value.rows(), p->value.cols());
  }
  for (std::uint64_t gen : gens) {
    const auto img = read_file(data_path(gen));
    if (!img) {
      ++fallbacks;
      continue;
    }
    ParsedCkpt parsed;
    if (!parse_checkpoint(*img, gen, expect, shapes, parsed)) {
      log_structured(LogLevel::kWarn, "ckpt_corrupt",
                     {kv("generation", gen), kv("bytes", img->size())});
      m_fallbacks_->add();
      ++fallbacks;
      continue;
    }

    // Commit: every section validated, now overwrite live state.
    const float* value = parsed.params.data.data();
    const float* moments = parsed.adam.data.data();
    for (Param* p : params) {
      std::memcpy(p->value.data(), value, p->value.bytes());
      value += p->value.size();
      if (adam != nullptr) {
        std::memcpy(p->m.data(), moments, p->m.bytes());
        moments += p->m.size();
        std::memcpy(p->v.data(), moments, p->v.bytes());
        moments += p->v.size();
      }
    }
    if (adam != nullptr) adam->set_timestep(parsed.adam_t);

    m_restores_->add();
    m_generation_->set(static_cast<std::int64_t>(gen));
    log_structured(LogLevel::kInfo, "ckpt_restore",
                   {kv("generation", gen), kv("epoch", parsed.cursor.epoch),
                    kv("next_batch", parsed.cursor.next_batch),
                    kv("fallbacks", fallbacks)});
    LoadResult result;
    result.cursor = std::move(parsed.cursor);
    result.generation = gen;
    result.fallbacks = fallbacks;
    return result;
  }
  return std::nullopt;
}

bool CheckpointManager::corrupt_flip_bit(std::uint64_t gen,
                                         std::uint64_t seed) {
  const std::string path = data_path(gen);
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return false;
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size <= 0) {
    ::close(fd);
    return false;
  }
  // Deterministic position past the header so the flip lands in a section.
  const auto pos = static_cast<off_t>(
      kFileHeaderBytes +
      splitmix64(seed) % (static_cast<std::uint64_t>(size) -
                          kFileHeaderBytes));
  std::uint8_t byte = 0;
  if (::pread(fd, &byte, 1, pos) != 1) {
    ::close(fd);
    return false;
  }
  byte ^= static_cast<std::uint8_t>(1u << (splitmix64(seed + 1) % 8));
  const bool ok = ::pwrite(fd, &byte, 1, pos) == 1;
  ::close(fd);
  return ok;
}

bool CheckpointManager::corrupt_truncate(std::uint64_t gen,
                                         double keep_fraction) {
  const std::string path = data_path(gen);
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size == 0) return false;
  const auto keep = static_cast<std::uintmax_t>(
      static_cast<double>(size) * std::clamp(keep_fraction, 0.0, 1.0));
  fs::resize_file(path, keep, ec);
  return !ec;
}

}  // namespace gnndrive
