#include "ckpt/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"
#include "util/crc32c.hpp"
#include "util/logging.hpp"
#include "util/telemetry.hpp"

namespace fs = std::filesystem;

namespace gnndrive {

namespace {

constexpr char kFileMagic[8] = {'G', 'N', 'N', 'D', 'C', 'K', 'P', '1'};
constexpr char kManifestMagic[8] = {'G', 'N', 'N', 'D', 'M', 'A', 'N', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr const char* kManifestName = "MANIFEST";

// Section kinds, in file order.
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecParams = 2;
constexpr std::uint32_t kSecAdam = 3;
constexpr std::uint32_t kSecRng = 4;
constexpr std::uint32_t kSecHotSet = 5;  ///< pinned hot-partition node ids
constexpr std::uint32_t kSecLayout = 6;  ///< feature-layout plan fingerprint

struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint64_t generation;
  std::uint32_t header_crc;  ///< over the preceding header bytes
};

struct SectionHeader {
  std::uint32_t kind;
  std::uint32_t reserved;
  std::uint64_t payload_bytes;
  std::uint32_t payload_crc;
};

/// Header checksum covers exactly the bytes before the crc field, so struct
/// padding never enters the digest.
std::uint32_t header_crc_of(const FileHeader& fh) {
  return crc32c(&fh, offsetof(FileHeader, header_crc));
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& buf, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}

void append_bytes(std::vector<std::uint8_t>& buf, const void* data,
                  std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf.insert(buf.end(), p, p + len);
}

/// Bounds-checked reader over a loaded file image. Any overrun marks the
/// image corrupt (torn file) instead of reading past the buffer.
struct ByteReader {
  const std::uint8_t* p;
  std::size_t remaining;
  bool ok = true;

  template <typename T>
  T read() {
    T v{};
    if (remaining < sizeof(T)) {
      ok = false;
      return v;
    }
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    remaining -= sizeof(T);
    return v;
  }
  bool read_into(void* dst, std::size_t len) {
    if (remaining < len) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, len);
    p += len;
    remaining -= len;
    return true;
  }
  bool skip(std::size_t len) {
    if (remaining < len) {
      ok = false;
      return false;
    }
    p += len;
    remaining -= len;
    return true;
  }
};

void append_section(std::vector<std::uint8_t>& out, std::uint32_t kind,
                    const std::vector<std::uint8_t>& payload) {
  SectionHeader sh{};
  sh.kind = kind;
  sh.payload_bytes = payload.size();
  sh.payload_crc = crc32c(payload.data(), payload.size());
  append_pod(out, sh);
  append_bytes(out, payload.data(), payload.size());
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what + ": " +
                           std::strerror(errno));
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write");
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Durability barrier on the directory itself, so a rename survives a power
/// cut. Best effort: some filesystems reject directory fsync.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Writes `buf` to `path` honouring the temp/fsync discipline; `mid_write`
/// runs after roughly half the payload hit the file (the torn-write
/// injection point). Leaves the file open-and-closed, fsynced if asked.
void write_file(const std::string& path, const std::vector<std::uint8_t>& buf,
                bool do_fsync, const std::function<void()>& after_open,
                const std::function<void()>& mid_write) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) throw_errno("open " + path);
  try {
    if (after_open) after_open();
    const std::size_t half = buf.size() / 2;
    write_all(fd, buf.data(), half);
    if (mid_write) mid_write();
    write_all(fd, buf.data() + half, buf.size() - half);
    if (do_fsync && ::fsync(fd) != 0) throw_errno("fsync " + path);
  } catch (...) {
    ::close(fd);  // simulated crash or real failure: keep the partial file
    throw;
  }
  if (::close(fd) != 0) throw_errno("close " + path);
}

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

/// Fully-parsed checkpoint staged off to the side; committed into the live
/// model/optimizer only after every section validated.
struct ParsedCkpt {
  TrainCursor cursor;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> shapes;  // rows, cols
  std::vector<std::vector<float>> values;
  std::vector<std::vector<float>> adam_m;
  std::vector<std::vector<float>> adam_v;
  std::uint64_t adam_t = 0;
  bool has_adam = false;
};

bool parse_checkpoint(const std::vector<std::uint8_t>& img,
                      std::uint64_t expect_gen, ParsedCkpt& out) {
  ByteReader r{img.data(), img.size()};
  const FileHeader fh = r.read<FileHeader>();
  if (!r.ok) return false;
  if (std::memcmp(fh.magic, kFileMagic, sizeof(kFileMagic)) != 0) return false;
  if (fh.version != kFormatVersion) return false;
  if (fh.generation != expect_gen) return false;
  if (header_crc_of(fh) != fh.header_crc) return false;

  bool saw_meta = false;
  bool saw_params = false;
  for (std::uint32_t s = 0; s < fh.section_count; ++s) {
    const SectionHeader sh = r.read<SectionHeader>();
    if (!r.ok || r.remaining < sh.payload_bytes) return false;
    if (crc32c(r.p, sh.payload_bytes) != sh.payload_crc) return false;
    ByteReader pr{r.p, static_cast<std::size_t>(sh.payload_bytes)};
    r.skip(sh.payload_bytes);
    switch (sh.kind) {
      case kSecMeta: {
        out.cursor.epoch = pr.read<std::uint64_t>();
        out.cursor.next_batch = pr.read<std::uint64_t>();
        out.cursor.trained_batches = pr.read<std::uint64_t>();
        out.cursor.fingerprint = pr.read<ModelFingerprint>();
        saw_meta = pr.ok;
        break;
      }
      case kSecParams: {
        const auto count = pr.read<std::uint32_t>();
        for (std::uint32_t i = 0; i < count && pr.ok; ++i) {
          const auto rows = pr.read<std::uint32_t>();
          const auto cols = pr.read<std::uint32_t>();
          const std::size_t n =
              static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
          std::vector<float> data(n);
          if (!pr.read_into(data.data(), n * sizeof(float))) break;
          out.shapes.emplace_back(rows, cols);
          out.values.push_back(std::move(data));
        }
        saw_params = pr.ok && out.values.size() == count;
        break;
      }
      case kSecAdam: {
        out.adam_t = pr.read<std::uint64_t>();
        const auto count = pr.read<std::uint32_t>();
        for (std::uint32_t i = 0; i < count && pr.ok; ++i) {
          const auto rows = pr.read<std::uint32_t>();
          const auto cols = pr.read<std::uint32_t>();
          const std::size_t n =
              static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
          std::vector<float> m(n), v(n);
          if (!pr.read_into(m.data(), n * sizeof(float))) break;
          if (!pr.read_into(v.data(), n * sizeof(float))) break;
          out.adam_m.push_back(std::move(m));
          out.adam_v.push_back(std::move(v));
        }
        out.has_adam = pr.ok && out.adam_m.size() == count;
        if (!out.has_adam) return false;
        break;
      }
      case kSecRng: {
        const auto count = pr.read<std::uint32_t>();
        for (std::uint32_t i = 0; i < count && pr.ok; ++i) {
          RngStream stream;
          stream.id = pr.read<std::uint32_t>();
          for (auto& word : stream.state) word = pr.read<std::uint64_t>();
          out.cursor.rng_streams.push_back(stream);
        }
        break;
      }
      case kSecHotSet: {
        const auto count = pr.read<std::uint32_t>();
        out.cursor.hot_set.reserve(count);
        for (std::uint32_t i = 0; i < count && pr.ok; ++i) {
          out.cursor.hot_set.push_back(pr.read<NodeId>());
        }
        break;
      }
      case kSecLayout: {
        out.cursor.layout_fingerprint = pr.read<std::uint64_t>();
        if (!pr.ok) return false;
        break;
      }
      default:
        break;  // unknown section: forward-compatible skip (CRC verified)
    }
    if (!pr.ok) return false;
  }
  return saw_meta && saw_params;
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
  std::vector<std::uint8_t> buf(sizeof(kManifestMagic) + 12);
  const std::string path = config_.dir + "/" + kManifestName;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = ::read(fd, buf.data(), buf.size());
  ::close(fd);
  if (n != static_cast<ssize_t>(buf.size())) return 0;
  if (std::memcmp(buf.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return 0;
  }
  std::uint64_t gen = 0;
  std::uint32_t crc = 0;
  std::memcpy(&gen, buf.data() + sizeof(kManifestMagic), sizeof(gen));
  std::memcpy(&crc, buf.data() + sizeof(kManifestMagic) + sizeof(gen),
              sizeof(crc));
  if (crc32c(buf.data(), sizeof(kManifestMagic) + sizeof(gen)) != crc) {
    return 0;
  }
  return gen;
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
  std::vector<std::uint8_t> meta;
  append_pod(meta, cursor.epoch);
  append_pod(meta, cursor.next_batch);
  append_pod(meta, cursor.trained_batches);
  append_pod(meta, cursor.fingerprint);

  const auto& params = model.params();
  std::vector<std::uint8_t> psec;
  append_pod(psec, static_cast<std::uint32_t>(params.size()));
  for (const Param* p : params) {
    append_pod(psec, p->value.rows());
    append_pod(psec, p->value.cols());
    append_bytes(psec, p->value.data(), p->value.bytes());
  }

  std::vector<std::uint8_t> asec;
  append_pod(asec, adam.timestep());
  append_pod(asec, static_cast<std::uint32_t>(params.size()));
  for (const Param* p : params) {
    append_pod(asec, p->m.rows());
    append_pod(asec, p->m.cols());
    append_bytes(asec, p->m.data(), p->m.bytes());
    append_bytes(asec, p->v.data(), p->v.bytes());
  }

  std::vector<std::uint8_t> rsec;
  append_pod(rsec, static_cast<std::uint32_t>(cursor.rng_streams.size()));
  for (const RngStream& s : cursor.rng_streams) {
    append_pod(rsec, s.id);
    for (std::uint64_t word : s.state) append_pod(rsec, word);
  }

  std::vector<std::uint8_t> hsec;
  append_pod(hsec, static_cast<std::uint32_t>(cursor.hot_set.size()));
  for (NodeId v : cursor.hot_set) append_pod(hsec, v);

  std::vector<std::uint8_t> lsec;
  append_pod(lsec, cursor.layout_fingerprint);

  FileHeader fh{};
  std::memcpy(fh.magic, kFileMagic, sizeof(kFileMagic));
  fh.version = kFormatVersion;
  fh.section_count = 6;
  fh.generation = gen;
  fh.header_crc = header_crc_of(fh);

  std::vector<std::uint8_t> img;
  img.reserve(sizeof(fh) + meta.size() + psec.size() + asec.size() +
              rsec.size() + hsec.size() + lsec.size() +
              6 * sizeof(SectionHeader));
  append_pod(img, fh);
  append_section(img, kSecMeta, meta);
  append_section(img, kSecParams, psec);
  append_section(img, kSecAdam, asec);
  append_section(img, kSecRng, rsec);
  append_section(img, kSecHotSet, hsec);
  append_section(img, kSecLayout, lsec);

  // Atomic protocol: temp -> fsync -> rename -> fsync(dir), then the same
  // for the manifest, then retention. CrashInjector fires between phases.
  const std::string tmp = data_path(gen) + ".tmp";
  write_file(tmp, img, config_.fsync,
             [&] { crash_point(CkptPhase::kAfterTempOpen, gen); },
             [&] { crash_point(CkptPhase::kTornSectionWrite, gen); });
  crash_point(CkptPhase::kAfterTempWrite, gen);
  // write_file fsynced before close (when configured).
  crash_point(CkptPhase::kAfterTempFsync, gen);
  fs::rename(tmp, data_path(gen), ec);
  if (ec) {
    throw std::runtime_error("checkpoint: rename " + tmp + ": " +
                             ec.message());
  }
  if (config_.fsync) fsync_dir(config_.dir);
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
  std::vector<std::uint8_t> buf;
  append_bytes(buf, kManifestMagic, sizeof(kManifestMagic));
  append_pod(buf, gen);
  const std::uint32_t crc = crc32c(buf.data(), buf.size());
  append_pod(buf, crc);

  const std::string path = config_.dir + "/" + kManifestName;
  const std::string tmp = path + ".tmp";
  write_file(tmp, buf, config_.fsync, nullptr, nullptr);
  crash_point(CkptPhase::kAfterManifestTemp, gen);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: rename " + tmp + ": " +
                             ec.message());
  }
  if (config_.fsync) fsync_dir(config_.dir);
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
  for (std::uint64_t gen : gens) {
    std::vector<std::uint8_t> img;
    {
      const std::string path = data_path(gen);
      const int fd = ::open(path.c_str(), O_RDONLY);
      if (fd < 0) {
        ++fallbacks;
        continue;
      }
      const off_t size = ::lseek(fd, 0, SEEK_END);
      ::lseek(fd, 0, SEEK_SET);
      img.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
      std::size_t done = 0;
      bool ok = true;
      while (done < img.size()) {
        const ssize_t n = ::read(fd, img.data() + done, img.size() - done);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          ok = false;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
      ::close(fd);
      if (!ok) {
        ++fallbacks;
        continue;
      }
    }

    ParsedCkpt parsed;
    if (!parse_checkpoint(img, gen, parsed)) {
      log_structured(LogLevel::kWarn, "ckpt_corrupt",
                     {kv("generation", gen), kv("bytes", img.size())});
      m_fallbacks_->add();
      ++fallbacks;
      continue;
    }

    // Validation passed; identity and shape checks are caller errors, not
    // media corruption — refuse loudly instead of falling back.
    if (!(parsed.cursor.fingerprint == expect)) {
      throw std::runtime_error(
          "checkpoint: generation " + std::to_string(gen) +
          " belongs to a different run/model configuration");
    }
    const auto& params = model.params();
    GD_CHECK_MSG(parsed.values.size() == params.size(),
                 "checkpoint parameter count mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
      GD_CHECK_MSG(parsed.shapes[i].first == params[i]->value.rows() &&
                       parsed.shapes[i].second == params[i]->value.cols(),
                   "checkpoint parameter shape mismatch");
    }

    // Commit: every section validated, now overwrite live state.
    for (std::size_t i = 0; i < params.size(); ++i) {
      std::memcpy(params[i]->value.data(), parsed.values[i].data(),
                  params[i]->value.bytes());
      if (adam != nullptr && parsed.has_adam) {
        std::memcpy(params[i]->m.data(), parsed.adam_m[i].data(),
                    params[i]->m.bytes());
        std::memcpy(params[i]->v.data(), parsed.adam_v[i].data(),
                    params[i]->v.bytes());
      }
    }
    if (adam != nullptr && parsed.has_adam) adam->set_timestep(parsed.adam_t);

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
      sizeof(FileHeader) +
      splitmix64(seed) % (static_cast<std::uint64_t>(size) -
                          sizeof(FileHeader)));
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
