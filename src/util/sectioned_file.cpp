#include "util/sectioned_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <stdexcept>

#include "util/crc32c.hpp"

namespace gnndrive {

namespace {

constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderCrcAt = 24;  ///< the CRC covers bytes [0, 24)

template <typename T>
void store(std::vector<std::uint8_t>& out, std::size_t at, T v) {
  std::memcpy(out.data() + at, &v, sizeof(T));
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  for (std::size_t done = 0; done < len;) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0 && errno != EINTR) throw_errno("write " + path);
    if (n > 0) done += static_cast<std::size_t>(n);
  }
}

}  // namespace

SectionWriter::SectionWriter(const char (&magic)[8], std::uint64_t tag)
    : out_(kFileHeaderBytes, 0) {
  std::memcpy(out_.data(), magic, sizeof(magic));
  store(out_, 8, kVersion);
  store(out_, 16, tag);
}

void SectionWriter::begin(std::uint32_t kind) {
  close_section();
  open_ = out_.size();
  out_.resize(open_ + kSectionHeaderBytes, 0);
  store(out_, open_, kind);
  ++sections_;
}

void SectionWriter::put_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out_.insert(out_.end(), p, p + len);
}

void SectionWriter::close_section() {
  if (open_ == 0) return;
  const std::size_t payload = open_ + kSectionHeaderBytes;
  const std::uint64_t len = out_.size() - payload;
  store(out_, open_ + 8, len);
  store(out_, open_ + 16, crc32c(out_.data() + payload, len));
  open_ = 0;
}

std::vector<std::uint8_t> SectionWriter::finish() {
  close_section();
  store(out_, 12, sections_);
  store(out_, kHeaderCrcAt, crc32c(out_.data(), kHeaderCrcAt));
  return std::move(out_);
}

std::optional<std::uint64_t> read_sections(const std::uint8_t* data,
                                           std::size_t len,
                                           const char (&magic)[8],
                                           const SectionVisitor& visit) {
  ByteCursor r(data, len);
  char file_magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  std::uint64_t tag = 0;
  std::uint32_t header_crc = 0;
  if (!r.read(&file_magic) || !r.read(&version) || !r.read(&count) ||
      !r.read(&tag) || !r.read(&header_crc) || !r.skip(4) ||
      std::memcmp(file_magic, magic, sizeof(file_magic)) != 0 ||
      version != kVersion || crc32c(data, kHeaderCrcAt) != header_crc) {
    return std::nullopt;
  }
  // A section count larger than the file fails at the first missing section
  // header; nothing is sized by it.
  for (std::uint32_t s = 0; s < count; ++s) {
    std::uint32_t kind = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
    if (!r.read(&kind) || !r.skip(4) || !r.read(&bytes) || !r.read(&crc) ||
        !r.skip(4) || bytes > r.remaining() ||
        crc32c(r.data(), bytes) != crc) {
      return std::nullopt;
    }
    ByteCursor payload(r.data(), bytes);
    if (!visit(kind, payload) || !payload.ok()) return std::nullopt;
    r.skip(bytes);
  }
  return tag;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  std::optional<std::vector<std::uint8_t>> bytes;
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size >= 0 && ::lseek(fd, 0, SEEK_SET) == 0) {
    bytes.emplace(static_cast<std::size_t>(size));
    for (std::size_t done = 0; done < bytes->size();) {
      const ssize_t n = ::read(fd, bytes->data() + done, bytes->size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        bytes.reset();
        break;
      }
      done += static_cast<std::size_t>(n);
    }
  }
  ::close(fd);
  return bytes;
}

void commit_file(const std::string& path,
                 const std::vector<std::uint8_t>& bytes, bool sync,
                 const CommitHooks& hooks) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) throw_errno("open " + tmp);
  try {
    if (hooks.opened) hooks.opened();
    const std::size_t half = bytes.size() / 2;
    write_all(fd, bytes.data(), half, tmp);
    if (hooks.half_written) hooks.half_written();
    write_all(fd, bytes.data() + half, bytes.size() - half, tmp);
    if (sync && ::fsync(fd) != 0) throw_errno("fsync " + tmp);
  } catch (...) {
    ::close(fd);  // a simulated crash or a real failure: the temp file stays
    throw;
  }
  if (::close(fd) != 0) throw_errno("close " + tmp);
  if (hooks.written) hooks.written();
  if (::rename(tmp.c_str(), path.c_str()) != 0) throw_errno("rename " + tmp);
  if (sync) {
    // The rename survives a power cut once the directory is synced. Best
    // effort: some filesystems reject a directory fsync.
    const std::string dir = std::filesystem::path(path).parent_path();
    const int dfd =
        ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }
}

}  // namespace gnndrive
