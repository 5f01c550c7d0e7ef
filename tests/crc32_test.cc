#include "util/crc32.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace warplda {
namespace {

/// The original byte-at-a-time table CRC, kept here as the oracle: every
/// frame and checkpoint on disk was checksummed by it, so the sliced
/// implementation must reproduce it bit for bit.
uint32_t BytewiseCrc32(const void* data, size_t size, uint32_t seed = 0) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> bytes(n);
  uint64_t state = seed;
  for (uint8_t& b : bytes) {
    state = SplitMix64(state);
    b = static_cast<uint8_t>(state >> 56);
  }
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// Every length through several slicing strides, at every start offset
// mod 8, copied into an exactly-sized heap buffer so a read past the end
// of the tail trips AddressSanitizer.
TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> source = RandomBytes(4096 + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      std::vector<uint8_t> exact(source.begin() + offset,
                                 source.begin() + offset + len);
      const uint8_t* in_place = source.data() + offset;
      const uint32_t expected = BytewiseCrc32(in_place, len);
      ASSERT_EQ(Crc32(in_place, len), expected)
          << "len " << len << " offset " << offset;
      ASSERT_EQ(Crc32(exact.data(), exact.size()), expected)
          << "len " << len << " (exact buffer)";
    }
  }
}

TEST(Crc32Test, ChainedSeedsEqualOneShot) {
  const std::vector<uint8_t> bytes = RandomBytes(1500, 11);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  ASSERT_EQ(whole, BytewiseCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); split += 7) {
    const uint32_t a = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, a), whole)
        << "split at " << split;
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, a),
              BytewiseCrc32(bytes.data() + split, bytes.size() - split,
                            BytewiseCrc32(bytes.data(), split)));
  }
}

TEST(Crc32Test, ArbitrarySeedsMatchBytewise) {
  const std::vector<uint8_t> bytes = RandomBytes(333, 13);
  for (uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0xDEADBEEFu, 0x80000000u}) {
    EXPECT_EQ(Crc32(bytes.data(), bytes.size(), seed),
              BytewiseCrc32(bytes.data(), bytes.size(), seed))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace warplda
