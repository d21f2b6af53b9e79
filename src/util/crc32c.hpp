// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding every sectioned file (util/sectioned_file). Software
// table-driven implementation: this host has no guaranteed SSE4.2, and
// checkpoint payloads are megabytes at most, far off any hot path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gnndrive {

namespace detail {

struct Crc32cTable {
  std::uint32_t t[256];
  constexpr Crc32cTable() : t{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
  }
};

inline constexpr Crc32cTable kCrc32cTable{};

}  // namespace detail

/// Incremental form: pass the previous return value as `seed` to extend a
/// checksum over multiple buffers. The default seed starts a fresh CRC.
inline std::uint32_t crc32c(const void* data, std::size_t len,
                            std::uint32_t seed = 0) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ detail::kCrc32cTable.t[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

}  // namespace gnndrive
