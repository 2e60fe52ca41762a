// AVX-512BW + VNNI instantiation of the integer tile kernels
// (tensor/int_tiles.h), compiled with the AVX-512 flags
// (src/CMakeLists.txt). Without them the unit reports itself unbuilt and
// simd_support() never offers kAvx512.
#include "tensor/int_tiles.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)
#include <immintrin.h>

namespace qnn {
namespace {

// One zmm is one whole panel row: 16 columns x one 4-byte K group. int8
// quads run `vpdpbusd` (u8 x s8, four products into each int32 lane);
// int16 pairs run `vpdpwssd` (two s16 x s16 products into each int32
// lane), widened to int64 (columns 0-7 in lo, 8-15 in hi) once per K
// block.
struct Avx512 {
  static constexpr bool kVector = true;
  static constexpr int kLanes = 16;
  static constexpr int kRows8 = 8;
  static constexpr int kRows16 = 8;
  static constexpr int kRowsWide16 = 4;
  using V = __m512i;
  struct Acc8 {
    __m512i s;
  };
  struct Acc16 {
    __m512i s;
  };
  struct Wide16 {
    __m512i lo, hi;
  };

  static V load(const unsigned char* p) { return _mm512_loadu_si512(p); }
  static V bcast(const unsigned char* p) {
    int group = 0;
    __builtin_memcpy(&group, p, sizeof group);
    return _mm512_set1_epi32(group);
  }
  static void zero(Acc8& acc) { acc.s = _mm512_setzero_si512(); }
  static void zero(Acc16& acc) { acc.s = _mm512_setzero_si512(); }
  static void zero(Wide16& w) { w.lo = w.hi = _mm512_setzero_si512(); }

  template <bool kAUnsigned>
  static void dot(Acc8& acc, V a, V b) {
    acc.s = kAUnsigned ? _mm512_dpbusd_epi32(acc.s, a, b)
                       : _mm512_dpbusd_epi32(acc.s, b, a);
  }
  template <bool>
  static void dot(Acc16& acc, V a, V b) {
    acc.s = _mm512_dpwssd_epi32(acc.s, a, b);
  }
  static void widen_add(Wide16& w, const Acc16& acc) {
    w.lo = _mm512_add_epi64(w.lo, widen_lo(acc.s));
    w.hi = _mm512_add_epi64(w.hi, widen_hi(acc.s));
  }

  // int32 lanes 0-7 / 8-15 sign-extended to int64. The full-mask maskz
  // forms (and the copied-out low half in place of a cast) avoid the
  // plain intrinsics' undefined passthrough operand, which GCC 12
  // reports as an uninitialized read.
  static __m512i widen_lo(__m512i s) {
    __m256i low;
    __builtin_memcpy(&low, &s, sizeof low);
    return _mm512_maskz_cvtepi32_epi64(0xFF, low);
  }
  static __m512i widen_hi(__m512i s) {
    return _mm512_maskz_cvtepi32_epi64(
        0xFF, _mm512_maskz_extracti64x4_epi64(0xF, s, 1));
  }

  static void store(const Acc8& acc, std::int64_t* out) {
    _mm512_storeu_si512(out, widen_lo(acc.s));
    _mm512_storeu_si512(out + 8, widen_hi(acc.s));
  }
  static void store(const Acc16& acc, std::int64_t* out) {
    _mm512_storeu_si512(out, widen_lo(acc.s));
    _mm512_storeu_si512(out + 8, widen_hi(acc.s));
  }
  static void store(const Wide16& w, std::int64_t* out) {
    _mm512_storeu_si512(out, w.lo);
    _mm512_storeu_si512(out + 8, w.hi);
  }
  static void store32(const Acc8& acc, std::int32_t* out) {
    _mm512_storeu_si512(out, acc.s);
  }
  static void store32(const Acc16& acc, std::int32_t* out) {
    _mm512_storeu_si512(out, acc.s);
  }
};

constexpr IntVecOps kVecOps = vec_int_ops();
constexpr FqVecOps kFqOps = vec_fq_ops();

}  // namespace

bool int_tiles_avx512(const IntTileJob& job) {
  run_int_tiles<Avx512>(job);
  return true;
}

bool int_tiles_avx512_built() { return true; }

const IntVecOps* int_vec_ops_avx512() { return &kVecOps; }
const FqVecOps* fq_vec_ops_avx512() { return &kFqOps; }

}  // namespace qnn

#else

namespace qnn {

bool int_tiles_avx512(const IntTileJob&) { return false; }
bool int_tiles_avx512_built() { return false; }
const IntVecOps* int_vec_ops_avx512() { return nullptr; }
const FqVecOps* fq_vec_ops_avx512() { return nullptr; }

}  // namespace qnn

#endif
