#include "src/util/crc32.h"

#include <array>

namespace triclust {

namespace {

/// Slice-by-8 lookup tables, built once at first use. tables[0] is the
/// classic byte-at-a-time table; tables[k][b] is the CRC contribution of
/// byte b followed by k zero bytes, so eight table lookups fold eight
/// input bytes per step. Every checkpoint Save checksums each file and
/// Restore re-checksums it. With values formatted through to_chars,
/// formatting no longer dominates a Save, and the bytewise loop was a
/// visible share of it: this form gives the same results ~5x faster
/// (650 KB fleet: 2.2 -> 0.4 ms, -O2, x86-64).
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

/// Little-endian 32-bit load, independent of host byte order and
/// alignment (compiles to a single load on little-endian targets).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const Tables tables = BuildTables();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; len >= 8; len -= 8, bytes += 8) {
    const uint32_t lo = crc ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; len > 0; --len, ++bytes) {
    crc = (crc >> 8) ^ tables[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

}  // namespace triclust
