// Carry-less-multiply folding for util/crc32, compiled with the SSE4.1 +
// PCLMULQDQ flags (src/CMakeLists.txt). Without them the unit reports
// itself unbuilt and crc32() keeps to the table loop.
//
// Folding follows Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected domain of P = 0x104C11DB7 (reflected 0xEDB88320):
// four 128-bit accumulators each absorb one 16-byte lane of every
// 64-byte block, the four collapse into one, any further 16-byte blocks
// fold into that one, and a Barrett reduction takes the 128-bit
// remainder down to the 32-bit CRC. Each fold constant is x^e mod P,
// bit-reflected and shifted left by one, for the distance e noted beside
// it.
#include "util/crc32.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>

namespace qnn {
namespace {

inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Moves `acc` forward by the distance encoded in `k` (low qword: the
// constant for acc's low half, high qword: for its high half) and
// absorbs `data`.
inline __m128i fold(__m128i acc, __m128i k, __m128i data) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), data);
}

// The table loop's running state `state` carried over `size` bytes at
// `p`; `size` is a multiple of 16 and at least 64.
std::uint32_t fold_body(const unsigned char* p, std::size_t size,
                        std::uint32_t state) {
  // x^(4*128+32), x^(4*128-32): one 64-byte stride.
  const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  // x^(128+32), x^(128-32): one 16-byte stride.
  const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  // x^64: 96 -> 64 bits.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
  // Barrett: low qword P (reflected, shifted), high qword
  // mu = floor(x^64 / P) (reflected).
  const __m128i poly_mu = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  size -= 64;

  for (; size >= 64; p += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }

  // Four accumulators down to one, then the remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 96 bits: the low qword folds onto the high one.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 96 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

  // Barrett reduction to 32 bits; the CRC lands in dword 1.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

}  // namespace

std::uint32_t crc32_clmul(const void* data, std::size_t size,
                          std::uint32_t seed) {
  if (size < 64) return crc32_table(data, size, seed);
  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t body = size & ~std::size_t{15};
  const std::uint32_t crc =
      fold_body(p, body, seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
  return crc32_table(p + body, size - body, crc);
}

bool crc32_clmul_built() { return true; }

}  // namespace qnn

#else

namespace qnn {

std::uint32_t crc32_clmul(const void* data, std::size_t size,
                          std::uint32_t seed) {
  return crc32_table(data, size, seed);
}

bool crc32_clmul_built() { return false; }

}  // namespace qnn

#endif
