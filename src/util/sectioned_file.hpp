// The one file format persisted beside the feature image: training
// checkpoints (src/ckpt) and feature-layout plans (src/layout) are both a
// CRC32C-guarded header followed by CRC32C-guarded sections.
//
//   header   magic[8] | version u32 = 1 | section_count u32 | tag u64 |
//            header_crc u32 (over the 24 bytes before it) | 4 zero bytes
//   section  kind u32 | 4 zero bytes | payload_bytes u64 | payload_crc u32 |
//            4 zero bytes | payload
//
// Integers are host-endian. The magic names the format; the tag is the
// checkpoint's generation and 0 for plans. No CRC covers a section's kind,
// so a reader treats a missing required section as corruption. Sections of
// a kind the reader does not know (a newer writer's) are skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace gnndrive {

inline constexpr std::size_t kFileHeaderBytes = 32;
inline constexpr std::size_t kSectionHeaderBytes = 24;

/// Bounds-checked reader over bytes from a file. A read past the end fails,
/// reads nothing and latches ok() to false.
class ByteCursor {
 public:
  ByteCursor(const std::uint8_t* data, std::size_t len)
      : p_(data), left_(len) {}

  template <typename T>
  bool read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint8_t* src = p_;
    if (!skip(sizeof(T))) return false;
    std::memcpy(out, src, sizeof(T));
    return true;
  }

  /// Appends `count` elements to `out` once the bytes left are checked to
  /// hold them: a count from the file never sizes an allocation the file
  /// cannot back.
  template <typename T>
  bool read_array(std::uint64_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint8_t* src = p_;
    if (!ok_ || count > left_ / sizeof(T) || !skip(count * sizeof(T))) {
      return ok_ = false;
    }
    const std::size_t at = out->size();
    out->resize(at + count);
    if (count != 0) std::memcpy(out->data() + at, src, count * sizeof(T));
    return true;
  }

  bool skip(std::uint64_t n) {
    if (!ok_ || n > left_) return ok_ = false;
    p_ += n;
    left_ -= n;
    return true;
  }

  const std::uint8_t* data() const { return p_; }
  std::size_t remaining() const { return left_; }
  bool ok() const { return ok_; }

 private:
  const std::uint8_t* p_;
  std::size_t left_;
  bool ok_ = true;
};

/// Builds a sectioned image in memory. Call begin() before the first put().
class SectionWriter {
 public:
  SectionWriter(const char (&magic)[8], std::uint64_t tag);

  /// Closes the open section, if any, and opens one of `kind`.
  void begin(std::uint32_t kind);
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(&v, sizeof(T));
  }
  void put_bytes(const void* data, std::size_t len);
  /// Closes the open section and the header; returns the image.
  std::vector<std::uint8_t> finish();

 private:
  void close_section();

  std::vector<std::uint8_t> out_;
  std::size_t open_ = 0;  ///< offset of the open section's header; 0: none
  std::uint32_t sections_ = 0;
};

/// Called with each section's kind and payload; false rejects the image.
using SectionVisitor =
    std::function<bool(std::uint32_t kind, ByteCursor& payload)>;

/// Checks a `magic` image's header, then each section's bounds and CRC
/// before handing its payload to `visit`, in file order. Returns the tag, or
/// nullopt when a check fails, a visit returns false or reads past its
/// payload.
std::optional<std::uint64_t> read_sections(const std::uint8_t* data,
                                           std::size_t len,
                                           const char (&magic)[8],
                                           const SectionVisitor& visit);

/// The whole file, or nullopt when it cannot be opened or read.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

/// Crash points of commit_file, in order, for fault-injection tests. A hook
/// that throws stops the commit there, and what is on disk stays.
struct CommitHooks {
  std::function<void()> opened = {};        ///< temp created, nothing written
  std::function<void()> half_written = {};  ///< half the bytes written: torn
  std::function<void()> written = {};       ///< temp complete, not renamed
};

/// The one durable write: `path`.tmp -> fsync -> rename over `path` ->
/// directory fsync, so a crash at any point leaves either the old or the new
/// file at `path`. `sync = false` skips the fsyncs. Throws
/// std::runtime_error on filesystem errors.
void commit_file(const std::string& path,
                 const std::vector<std::uint8_t>& bytes, bool sync,
                 const CommitHooks& hooks = {});

}  // namespace gnndrive
