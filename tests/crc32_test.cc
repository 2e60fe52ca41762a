// CRC-32: the zlib check values, and both paths behind crc32() — the
// carry-less-multiply fold and the byte-at-a-time table loop — against a
// bit-at-a-time oracle written here from the polynomial alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.h"

namespace qnn {
namespace {

std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<unsigned char> bytes(size);
  for (auto& b : bytes) b = static_cast<unsigned char>(gen());
  return bytes;
}

using CrcFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

// Every offset 0-15 into a buffer and every length 0-1300 (across the
// 16- and 64-byte fold boundaries), each from a random seed, then 1 MiB.
void expect_matches_oracle(CrcFn fn) {
  constexpr std::size_t kMaxLen = 1300;
  const std::vector<unsigned char> buf = random_bytes(kMaxLen + 16, 7);
  std::mt19937 seeds(11);
  int mismatches = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::uint32_t seed = static_cast<std::uint32_t>(seeds());
      const unsigned char* p = buf.data() + offset;
      if (fn(p, len, seed) != crc32_bitwise(p, len, seed)) {
        if (++mismatches <= 5)
          ADD_FAILURE() << "offset " << offset << " length " << len;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);

  const std::vector<unsigned char> big = random_bytes(std::size_t{1} << 20, 3);
  EXPECT_EQ(fn(big.data(), big.size(), 0x1234567u),
            crc32_bitwise(big.data(), big.size(), 0x1234567u));
}

// crc32_kernel() names "clmul" only when the folding unit is built and
// the CPU has PCLMULQDQ.
bool clmul_runs_here() { return std::string_view(crc32_kernel()) == "clmul"; }

TEST(Crc32, KnownVectors) {
  // The standard zlib-compatible check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  // Incremental: crc of "ab" equals crc("b") seeded with crc("a").
  EXPECT_EQ(crc32("ab"),
            crc32(std::string_view("b"), crc32(std::string_view("a"))));
}

TEST(Crc32, DetectsSingleBitChange) {
  std::string data(256, '\0');
  const auto base = crc32(data);
  data[100] ^= 1;
  EXPECT_NE(crc32(data), base);
}

TEST(Crc32, TableLoopMatchesBitwiseOracle) {
  expect_matches_oracle(crc32_table);
}

TEST(Crc32, FoldingPathMatchesBitwiseOracle) {
  if (!clmul_runs_here())
    GTEST_SKIP() << "carry-less-multiply CRC not built or no PCLMULQDQ";
  expect_matches_oracle(crc32_clmul);
}

TEST(Crc32, StreamingSplitsEqualOneShot) {
  const std::vector<unsigned char> buf = random_bytes(300, 5);
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32, KernelNameMatchesBuild) {
  const std::string_view kernel = crc32_kernel();
  EXPECT_TRUE(kernel == "clmul" || kernel == "table");
  if (!crc32_clmul_built()) {
    EXPECT_EQ(kernel, "table");
  }
}

}  // namespace
}  // namespace qnn
