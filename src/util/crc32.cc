#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace warplda {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE 802.3

/// Bytes consumed per step of the sliced loop.
constexpr size_t kSlices = 16;

using SliceTables = std::array<std::array<uint32_t, 256>, kSlices>;

/// Slicing-by-16 lookup tables, built at compile time (16 KiB). Table 0 is
/// the classic byte-at-a-time table; table s advances a byte's CRC
/// contribution across s further zero bytes, so one step folds 16 input
/// bytes with 16 independent lookups instead of a 16-long dependency chain.
constexpr SliceTables MakeTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? kPolynomial ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < kSlices; ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kTables = MakeTables();

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Folds one 4-byte little-endian word whose bytes sit `slice` .. `slice`-3
/// positions before the end of a 16-byte step.
uint32_t FoldWord(uint32_t w, size_t slice) {
  return kTables[slice][w & 0xFFu] ^ kTables[slice - 1][(w >> 8) & 0xFFu] ^
         kTables[slice - 2][(w >> 16) & 0xFFu] ^ kTables[slice - 3][w >> 24];
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  // The sliced loop reads words little-endian; a big-endian host takes the
  // bytewise loop for the whole buffer and gets the same values.
  if constexpr (std::endian::native == std::endian::little) {
    while (size >= kSlices) {
      crc = FoldWord(Load32(bytes) ^ crc, 15) ^ FoldWord(Load32(bytes + 4), 11) ^
            FoldWord(Load32(bytes + 8), 7) ^ FoldWord(Load32(bytes + 12), 3);
      bytes += kSlices;
      size -= kSlices;
    }
  }
  for (size_t i = 0; i < size; ++i) {
    crc = kTables[0][(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace warplda
