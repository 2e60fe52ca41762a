// AVX2 instantiation of the integer tile kernels (tensor/int_tiles.h),
// compiled with -mavx2 -mfma (src/CMakeLists.txt). Without those flags
// the unit reports itself unbuilt and the scalar tier runs instead.
//
// The data path's 64-byte vectors (tensor/int_tiles.h) pass by value
// only between internal-linkage helpers of this unit, so GCC's note
// that such calls change ABI under AVX-512 cannot apply here.
#pragma GCC diagnostic ignored "-Wpsabi"

#include "tensor/int_tiles.h"

#if defined(__AVX2__)
#include <immintrin.h>

namespace qnn {
namespace {

// A ymm holds 8 columns x one 4-byte K group. There is no VNNI here, so
// a group's four u8 x s8 products are widened to 16 bits and summed as
// two `vpmaddwd` pair sums per column: columns 0-3 (the low 128 bits)
// accumulate in lo, columns 4-7 in hi, two int32 lanes per column.
// Each lane is a sub-sum of the int8 tier's accumulator, so the same
// int32 bound covers it; store() adds the pairs and restores column
// order. int16 pairs are one `vpmaddwd` added into one int32 lane per
// column (`vpaddd`), widened to int64 once per K block.
struct Avx2 {
  static constexpr bool kVector = true;
  static constexpr int kLanes = 8;
  static constexpr int kRows8 = 2;
  static constexpr int kRows16 = 4;
  static constexpr int kRowsWide16 = 2;
  using V = __m256i;
  struct Acc8 {
    __m256i lo, hi;
  };
  struct Acc16 {
    __m256i s;
  };
  struct Wide16 {
    __m256i lo, hi;
  };

  static V load(const unsigned char* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static V bcast(const unsigned char* p) {
    int group = 0;
    __builtin_memcpy(&group, p, sizeof group);
    return _mm256_set1_epi32(group);
  }
  static void zero(Acc8& acc) { acc.lo = acc.hi = _mm256_setzero_si256(); }
  static void zero(Acc16& acc) { acc.s = _mm256_setzero_si256(); }
  static void zero(Wide16& w) { w.lo = w.hi = _mm256_setzero_si256(); }

  template <bool kUnsigned>
  static __m256i widen(__m128i bytes) {
    return kUnsigned ? _mm256_cvtepu8_epi16(bytes)
                     : _mm256_cvtepi8_epi16(bytes);
  }
  template <bool kAUnsigned>
  static void dot(Acc8& acc, V a, V b) {
    // a is a broadcast group, so its low 128 bits are four copies of it.
    const __m256i aw = widen<kAUnsigned>(_mm256_castsi256_si128(a));
    acc.lo = _mm256_add_epi32(
        acc.lo, _mm256_madd_epi16(
                    aw, widen<!kAUnsigned>(_mm256_castsi256_si128(b))));
    acc.hi = _mm256_add_epi32(
        acc.hi, _mm256_madd_epi16(
                    aw, widen<!kAUnsigned>(_mm256_extracti128_si256(b, 1))));
  }
  template <bool>
  static void dot(Acc16& acc, V a, V b) {
    acc.s = _mm256_add_epi32(acc.s, _mm256_madd_epi16(a, b));
  }
  static void widen_add(Wide16& w, const Acc16& acc) {
    w.lo = _mm256_add_epi64(
        w.lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc.s)));
    w.hi = _mm256_add_epi64(
        w.hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc.s, 1)));
  }

  // The eight column sums in order: hadd leaves 64-bit chunks
  // (c0 c1)(c4 c5)(c2 c3)(c6 c7).
  static __m256i sums(const Acc8& acc) {
    return _mm256_permute4x64_epi64(_mm256_hadd_epi32(acc.lo, acc.hi), 0xD8);
  }
  static void store(const Acc8& acc, std::int64_t* out) {
    store(Acc16{sums(acc)}, out);
  }
  static void store32(const Acc8& acc, std::int32_t* out) {
    store32(Acc16{sums(acc)}, out);
  }
  static void store(const Acc16& acc, std::int64_t* out) {
    Wide16 w;
    zero(w);
    widen_add(w, acc);
    store(w, out);
  }
  static void store32(const Acc16& acc, std::int32_t* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), acc.s);
  }
  static void store(const Wide16& w, std::int64_t* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), w.lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4), w.hi);
  }
};

constexpr IntVecOps kVecOps = vec_int_ops();
constexpr FqVecOps kFqOps = vec_fq_ops();

}  // namespace

bool int_tiles_avx2(const IntTileJob& job) {
  run_int_tiles<Avx2>(job);
  return true;
}

const IntVecOps* int_vec_ops_avx2() { return &kVecOps; }
const FqVecOps* fq_vec_ops_avx2() { return &kFqOps; }

}  // namespace qnn

#else

namespace qnn {

bool int_tiles_avx2(const IntTileJob&) { return false; }
const IntVecOps* int_vec_ops_avx2() { return nullptr; }
const FqVecOps* fq_vec_ops_avx2() { return nullptr; }

}  // namespace qnn

#endif
