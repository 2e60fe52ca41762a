#include "tensor/microkernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tensor/int_tiles.h"
#include "util/env.h"
#include "util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QNN_MICROKERNEL_X86 1
#include <immintrin.h>
#else
#define QNN_MICROKERNEL_X86 0
#endif

namespace qnn {
namespace {

// ---------------------------------------------------------------------
// Scalar float kernel — the canonical order, spelled portably. One
// std::fmaf per (element, p): correctly rounded by IEEE 754, so this IS
// the AVX2 kernel's arithmetic, minus the registers. Unrolled 4 rows so
// the compiler keeps accumulator rows hot and vectorizes the N loop
// (auto-vectorized fmaf lanes compute the same bytes — lanes never mix).
void block_f32_scalar(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                      const float* a, std::int64_t lda, const float* b,
                      std::int64_t ldb, float* c, std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 4 <= mb; i += 4) {
    const float* a0 = a + (i + 0) * lda;
    const float* a1 = a + (i + 1) * lda;
    const float* a2 = a + (i + 2) * lda;
    const float* a3 = a + (i + 3) * lda;
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    for (std::int64_t p = 0; p < kb; ++p) {
      const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      const float* bp = b + p * ldb;
      for (std::int64_t j = 0; j < nb; ++j) {
        const float bj = bp[j];
        c0[j] = std::fmaf(v0, bj, c0[j]);
        c1[j] = std::fmaf(v1, bj, c1[j]);
        c2[j] = std::fmaf(v2, bj, c2[j]);
        c3[j] = std::fmaf(v3, bj, c3[j]);
      }
    }
  }
  for (; i < mb; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (std::int64_t p = 0; p < kb; ++p) {
      const float v = ai[p];
      const float* bp = b + p * ldb;
      for (std::int64_t j = 0; j < nb; ++j) ci[j] = std::fmaf(v, bp[j], ci[j]);
    }
  }
}

// Scalar tier of the integer tile family (tensor/int_tiles.h): one
// column per "vector", each little-endian 4-byte group unpacked and
// multiplied in int64 — exact for any words, so it is also the tier a
// stage falls back to when its accumulator bound fails.
struct ScalarIsa {
  static constexpr bool kVector = false;
  static constexpr int kLanes = 1;
  static constexpr int kRows8 = 4;
  static constexpr int kRows16 = 4;
  using V = std::uint32_t;
  struct Acc8 {
    std::int64_t s;
  };
  struct Acc16 {
    std::int64_t s;
  };

  static V load(const unsigned char* p) {
    V v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
  static V bcast(const unsigned char* p) { return load(p); }
  static void zero(Acc8& acc) { acc.s = 0; }
  static void zero(Acc16& acc) { acc.s = 0; }

  template <bool kAUnsigned>
  static void dot(Acc8& acc, V a, V b) {
    const V u = kAUnsigned ? a : b;
    const V s = kAUnsigned ? b : a;
    for (int t = 0; t < 4; ++t)
      acc.s += static_cast<std::int64_t>((u >> (8 * t)) & 0xff) *
               static_cast<std::int8_t>(s >> (8 * t));
  }
  template <bool>
  static void dot(Acc16& acc, V a, V b) {
    for (int t = 0; t < 2; ++t)
      acc.s += static_cast<std::int64_t>(static_cast<std::int16_t>(a >> (16 * t))) *
               static_cast<std::int16_t>(b >> (16 * t));
  }

  static void store(const Acc8& acc, std::int64_t* out) { *out = acc.s; }
  static void store(const Acc16& acc, std::int64_t* out) { *out = acc.s; }
};

#if QNN_MICROKERNEL_X86

// ---------------------------------------------------------------------
// AVX2 + FMA float kernel. Register blocking: 4 rows x 16 columns of C
// live in 8 ymm accumulators across the whole K loop (plus 2 B vectors
// and 1 broadcast), so C traffic drops from once per p to once per
// block. Column groups of kGemmLanes are the lane stripe; each lane
// folds its own element with vfmadd231ps — the same serial fmaf fold as
// the scalar kernel, element for element.

__attribute__((target("avx2,fma"))) inline void panel_f32_4x16(
    std::int64_t kb, const float* a0, const float* a1, const float* a2,
    const float* a3, const float* b, std::int64_t ldb, float* c0, float* c1,
    float* c2, float* c3) {
  __m256 x00 = _mm256_loadu_ps(c0), x01 = _mm256_loadu_ps(c0 + 8);
  __m256 x10 = _mm256_loadu_ps(c1), x11 = _mm256_loadu_ps(c1 + 8);
  __m256 x20 = _mm256_loadu_ps(c2), x21 = _mm256_loadu_ps(c2 + 8);
  __m256 x30 = _mm256_loadu_ps(c3), x31 = _mm256_loadu_ps(c3 + 8);
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* bp = b + p * ldb;
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 v = _mm256_broadcast_ss(a0 + p);
    x00 = _mm256_fmadd_ps(v, b0, x00);
    x01 = _mm256_fmadd_ps(v, b1, x01);
    v = _mm256_broadcast_ss(a1 + p);
    x10 = _mm256_fmadd_ps(v, b0, x10);
    x11 = _mm256_fmadd_ps(v, b1, x11);
    v = _mm256_broadcast_ss(a2 + p);
    x20 = _mm256_fmadd_ps(v, b0, x20);
    x21 = _mm256_fmadd_ps(v, b1, x21);
    v = _mm256_broadcast_ss(a3 + p);
    x30 = _mm256_fmadd_ps(v, b0, x30);
    x31 = _mm256_fmadd_ps(v, b1, x31);
  }
  _mm256_storeu_ps(c0, x00);
  _mm256_storeu_ps(c0 + 8, x01);
  _mm256_storeu_ps(c1, x10);
  _mm256_storeu_ps(c1 + 8, x11);
  _mm256_storeu_ps(c2, x20);
  _mm256_storeu_ps(c2 + 8, x21);
  _mm256_storeu_ps(c3, x30);
  _mm256_storeu_ps(c3 + 8, x31);
}

__attribute__((target("avx2,fma"))) inline void panel_f32_1x16(
    std::int64_t kb, const float* ai, const float* b, std::int64_t ldb,
    float* ci) {
  __m256 x0 = _mm256_loadu_ps(ci), x1 = _mm256_loadu_ps(ci + 8);
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* bp = b + p * ldb;
    const __m256 v = _mm256_broadcast_ss(ai + p);
    x0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bp), x0);
    x1 = _mm256_fmadd_ps(v, _mm256_loadu_ps(bp + 8), x1);
  }
  _mm256_storeu_ps(ci, x0);
  _mm256_storeu_ps(ci + 8, x1);
}

__attribute__((target("avx2"))) inline __m256i lane_index() {
  return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

// Eight floats at p, or (kMasked) only the lanes set in `mask`: the
// other lanes read as zero and are never written.
template <bool kMasked>
__attribute__((target("avx2"))) inline __m256 load_cols(const float* p,
                                                       __m256i mask) {
  return kMasked ? _mm256_maskload_ps(p, mask) : _mm256_loadu_ps(p);
}

template <bool kMasked>
__attribute__((target("avx2"))) inline void store_cols(float* p, __m256i mask,
                                                      __m256 v) {
  if constexpr (kMasked) {
    _mm256_maskstore_ps(p, mask, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

// The narrow panel: R (<= 8) rows x w (<= 8) columns, one accumulator
// per row, so R independent fma chains hide the latency a single
// 8-column row would wait on. Columns past w are masked out of every
// load and store (never read, never written), which also makes this
// the sub-lane tail of every wider block: the same serial fused fold
// per element as the scalar kernel.
template <int R, bool kMasked>
__attribute__((target("avx2,fma"))) inline void panel_f32_rx8(
    std::int64_t kb, const float* a, std::int64_t lda, const float* b,
    std::int64_t ldb, float* c, std::int64_t ldc, __m256i mask) {
  __m256 x[R];
  for (int r = 0; r < R; ++r) x[r] = load_cols<kMasked>(c + r * ldc, mask);
  for (std::int64_t p = 0; p < kb; ++p) {
    const __m256 bp = load_cols<kMasked>(b + p * ldb, mask);
    for (int r = 0; r < R; ++r)
      x[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + r * lda + p), bp, x[r]);
  }
  for (int r = 0; r < R; ++r) store_cols<kMasked>(c + r * ldc, mask, x[r]);
}

// Rows [0, mb) of one <= 8-column group: 8-row panels, then one panel
// for the remaining rows.
template <bool kMasked>
__attribute__((target("avx2,fma"))) void narrow_f32(
    std::int64_t mb, std::int64_t kb, const float* a, std::int64_t lda,
    const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
    __m256i mask) {
  std::int64_t i = 0;
  for (; i + 8 <= mb; i += 8)
    panel_f32_rx8<8, kMasked>(kb, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                              mask);
  const float* ai = a + i * lda;
  float* ci = c + i * ldc;
  switch (mb - i) {
    case 7:
      return panel_f32_rx8<7, kMasked>(kb, ai, lda, b, ldb, ci, ldc, mask);
    case 6:
      return panel_f32_rx8<6, kMasked>(kb, ai, lda, b, ldb, ci, ldc, mask);
    case 5:
      return panel_f32_rx8<5, kMasked>(kb, ai, lda, b, ldb, ci, ldc, mask);
    case 4:
      return panel_f32_rx8<4, kMasked>(kb, ai, lda, b, ldb, ci, ldc, mask);
    case 3:
      return panel_f32_rx8<3, kMasked>(kb, ai, lda, b, ldb, ci, ldc, mask);
    case 2:
      return panel_f32_rx8<2, kMasked>(kb, ai, lda, b, ldb, ci, ldc, mask);
    case 1:
      return panel_f32_rx8<1, kMasked>(kb, ai, lda, b, ldb, ci, ldc, mask);
    default:
      return;
  }
}

__attribute__((target("avx2,fma"))) void block_f32_avx2(
    std::int64_t mb, std::int64_t nb, std::int64_t kb, const float* a,
    std::int64_t lda, const float* b, std::int64_t ldb, float* c,
    std::int64_t ldc) {
  std::int64_t j = 0;
  for (; j + 16 <= nb; j += 16) {
    const float* bj = b + j;
    float* cj = c + j;
    std::int64_t i = 0;
    for (; i + 4 <= mb; i += 4)
      panel_f32_4x16(kb, a + (i + 0) * lda, a + (i + 1) * lda,
                     a + (i + 2) * lda, a + (i + 3) * lda, bj, ldb,
                     cj + (i + 0) * ldc, cj + (i + 1) * ldc,
                     cj + (i + 2) * ldc, cj + (i + 3) * ldc);
    for (; i < mb; ++i)
      panel_f32_1x16(kb, a + i * lda, bj, ldb, cj + i * ldc);
  }
  for (; j < nb; j += 8) {
    const std::int64_t w = std::min<std::int64_t>(8, nb - j);
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(w)), lane_index());
    if (w == 8) {
      narrow_f32<false>(mb, kb, a, lda, b + j, ldb, c + j, ldc, mask);
    } else {
      narrow_f32<true>(mb, kb, a, lda, b + j, ldb, c + j, ldc, mask);
    }
  }
}

// ---------------------------------------------------------------------
// AVX2 float data path (F32VecOps): im2col row moves and the max-pool
// window scan, 8 outputs per vector.

// Each 8-column group of the K row keeps one load mask ([x0, x1)) and
// one store mask (< ow) for all its rows: rows [y0, y1) are masked row
// moves, the rows above and below zero. Masked lanes are neither read
// nor written.
template <bool kMasked>
__attribute__((target("avx2"))) inline void im2col_group_avx2(
    const Im2colRow& r, const float* src, __m256i in, __m256i keep,
    float* dst) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t y = 0;
  for (; y < r.y0; ++y, dst += r.ow) store_cols<kMasked>(dst, keep, zero);
  for (; y < r.y1; ++y, dst += r.ow, src += r.w)
    store_cols<kMasked>(dst, keep, _mm256_maskload_ps(src, in));
  for (; y < r.oh; ++y, dst += r.ow) store_cols<kMasked>(dst, keep, zero);
}

__attribute__((target("avx2"))) void im2col_row_avx2(const Im2colRow& r,
                                                     const float* plane,
                                                     float* out) {
  const __m256i x0 = _mm256_set1_epi32(static_cast<int>(r.x0));
  const __m256i x1 = _mm256_set1_epi32(static_cast<int>(r.x1));
  const __m256i ow = _mm256_set1_epi32(static_cast<int>(r.ow));
  const float* src = plane + (r.offset + r.y0 * r.w);
  for (std::int64_t x = 0; x < r.ow; x += 8) {
    const __m256i lanes = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(x)), lane_index());
    const __m256i in = _mm256_andnot_si256(_mm256_cmpgt_epi32(x0, lanes),
                                           _mm256_cmpgt_epi32(x1, lanes));
    const __m256i keep = _mm256_cmpgt_epi32(ow, lanes);
    if (x + 8 <= r.ow) {
      im2col_group_avx2<false>(r, src + x, in, keep, out + x);
    } else {
      im2col_group_avx2<true>(r, src + x, in, keep, out + x);
    }
  }
}

// Cells p + S * l of the lanes l set in `lanes` (all eight when
// !kMasked); the other lanes read nothing. Stride 2 keeps the even
// lanes of two loads, whose odd lanes — cells between the eight — are
// read only inside a full group, where they lie in its windows' row.
template <int S, bool kMasked>
__attribute__((target("avx2"))) inline __m256 load_strided(
    const float* p, __m256i lanes, __m256i lo_lanes, __m256i hi_lanes) {
  if constexpr (S == 1) {
    return load_cols<kMasked>(p, lanes);
  } else {
    const __m256 lo = load_cols<kMasked>(p, lo_lanes);
    const __m256 hi = load_cols<true>(p + 8, hi_lanes);
    // (a0 a2 b0 b2 | a4 a6 b4 b6) -> (a0 a2 a4 a6 b0 b2 b4 b6)
    const __m256 even = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
    return _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(even), 0xD8));
  }
}

// Outputs [x, x + n) of row y (n = 8 unless kMasked): the window scan
// of the scalar loop, 8 outputs at a time. A strict ordered `>` (false
// on NaN) blends both the value and the cell offset, cell by cell in
// (row, column) order.
template <int S, bool kMasked>
__attribute__((target("avx2"))) inline void pool_max_group_avx2(
    const MaxPoolRect& r, std::int64_t y, std::int64_t x, std::int64_t n,
    float* out, std::int64_t* argmax) {
  const __m256i count = _mm256_set1_epi32(static_cast<int>(n));
  const __m256i lanes = _mm256_cmpgt_epi32(count, lane_index());
  // Stride 2: even lane l of the first load holds output l / 2's cell,
  // of the second output 4 + l / 2's; odd lanes hold no output's.
  const __m256i lo_lanes = _mm256_cmpgt_epi32(
      count, _mm256_setr_epi32(0, 8, 1, 8, 2, 8, 3, 8));
  const __m256i hi_lanes = _mm256_cmpgt_epi32(
      count, _mm256_setr_epi32(4, 8, 5, 8, 6, 8, 7, 8));
  const std::int64_t off = (y * S - r.pad) * r.w + x * S - r.pad;
  const __m256i cell0 = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(off)),
      _mm256_mullo_epi32(lane_index(), _mm256_set1_epi32(S)));
  __m256 best =
      load_strided<S, kMasked>(r.plane + off, lanes, lo_lanes, hi_lanes);
  __m256 best_cell = _mm256_castsi256_ps(cell0);
  for (std::int64_t dy = 0; dy < r.kernel; ++dy) {
    for (std::int64_t dx = dy == 0 ? 1 : 0; dx < r.kernel; ++dx) {
      const std::int64_t d = dy * r.w + dx;
      const __m256 v = load_strided<S, kMasked>(r.plane + off + d, lanes,
                                                lo_lanes, hi_lanes);
      const __m256 gt = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
      best = _mm256_blendv_ps(best, v, gt);
      const __m256i cell =
          _mm256_add_epi32(cell0, _mm256_set1_epi32(static_cast<int>(d)));
      best_cell = _mm256_blendv_ps(best_cell, _mm256_castsi256_ps(cell), gt);
    }
  }
  const __m256i cells = _mm256_castps_si256(best_cell);
  const __m256i base = _mm256_set1_epi64x(r.plane_base);
  const __m256i arg_lo = _mm256_add_epi64(
      _mm256_cvtepi32_epi64(_mm256_castsi256_si128(cells)), base);
  const __m256i arg_hi = _mm256_add_epi64(
      _mm256_cvtepi32_epi64(_mm256_extracti128_si256(cells, 1)), base);
  float* o = out + y * r.ow + x;
  long long* a = reinterpret_cast<long long*>(argmax + y * r.ow + x);
  store_cols<kMasked>(o, lanes, best);
  if constexpr (kMasked) {
    _mm256_maskstore_epi64(
        a, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(lanes)), arg_lo);
    _mm256_maskstore_epi64(
        a + 4, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(lanes, 1)),
        arg_hi);
  } else {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a), arg_lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + 4), arg_hi);
  }
}

// Full groups of 8 outputs per row, then one masked group for the rest.
template <int S>
__attribute__((target("avx2"))) void pool_max_rect_avx2(const MaxPoolRect& r,
                                                        float* out,
                                                        std::int64_t* argmax) {
  for (std::int64_t y = r.y0; y < r.y1; ++y) {
    std::int64_t x = r.x0;
    for (; x + 8 <= r.x1; x += 8)
      pool_max_group_avx2<S, false>(r, y, x, 8, out, argmax);
    if (x < r.x1) pool_max_group_avx2<S, true>(r, y, x, r.x1 - x, out, argmax);
  }
}

__attribute__((target("avx2"))) void pool_max_f32_avx2(const MaxPoolRect& r,
                                                       float* out,
                                                       std::int64_t* argmax) {
  if (r.stride == 1) {
    pool_max_rect_avx2<1>(r, out, argmax);
  } else {
    pool_max_rect_avx2<2>(r, out, argmax);
  }
}

constexpr F32VecOps kF32Avx2{im2col_row_avx2, pool_max_f32_avx2};

#endif  // QNN_MICROKERNEL_X86

// ---------------------------------------------------------------------
// Dispatch state.

std::atomic<int> g_forced_level{-1};  // -1 = none, else SimdLevel
std::atomic<int> g_env_level{-1};     // cached resolve_simd_level()

// Clamps a requested level to what this CPU and build support, warning
// once per `warned` flag when it has to.
SimdLevel clamp_to_support(SimdLevel want, const char* what,
                           std::atomic<bool>& warned) {
  const SimdLevel have = simd_support();
  if (want <= have) return want;
  if (!warned.exchange(true))
    QNN_LOG(Warn) << what << simd_level_name(want)
                  << " requested but this CPU/build supports only "
                  << simd_level_name(have) << "; using "
                  << simd_level_name(have);
  return have;
}

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "?";
}

SimdLevel simd_support() {
#if QNN_MICROKERNEL_X86
  static const SimdLevel level = [] {
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
      return SimdLevel::kScalar;
    if (int_tiles_avx512_built() && __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni"))
      return SimdLevel::kAvx512;
    return SimdLevel::kAvx2;
  }();
  return level;
#else
  return SimdLevel::kScalar;
#endif
}

bool simd_supports(SimdLevel level) { return level <= simd_support(); }

SimdLevel resolve_simd_level() {
  static const env::Spelling<SimdLevel> kSpellings[] = {
      {"off", SimdLevel::kScalar},
      {"scalar", SimdLevel::kScalar},
      {"avx2", SimdLevel::kAvx2},
      {"avx512", SimdLevel::kAvx512}};
  const SimdLevel have = simd_support();
  const SimdLevel want =
      env::read_env("QNN_SIMD", kSpellings, have,
                    std::string("auto=") + simd_level_name(have));
  static std::atomic<bool> warned{false};
  return clamp_to_support(want, "QNN_SIMD=", warned);
}

SimdLevel active_simd_level() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  int env = g_env_level.load(std::memory_order_relaxed);
  if (env < 0) {
    env = static_cast<int>(resolve_simd_level());
    g_env_level.store(env, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(env);
}

std::optional<SimdLevel> set_forced_simd_level(
    std::optional<SimdLevel> level) {
  static std::atomic<bool> warned{false};
  const int next =
      level.has_value()
          ? static_cast<int>(clamp_to_support(*level, "SIMD level ", warned))
          : -1;
  const int prev = g_forced_level.exchange(next, std::memory_order_relaxed);
  if (prev < 0) return std::nullopt;
  return static_cast<SimdLevel>(prev);
}

void refresh_simd_env() {
  g_env_level.store(-1, std::memory_order_relaxed);
}

void gemm_block_f32(SimdLevel level, std::int64_t mb, std::int64_t nb,
                    std::int64_t kb, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb, float* c,
                    std::int64_t ldc) {
#if QNN_MICROKERNEL_X86
  if (level >= SimdLevel::kAvx2 && simd_supports(SimdLevel::kAvx2)) {
    block_f32_avx2(mb, nb, kb, a, lda, b, ldb, c, ldc);
    return;
  }
#endif
  (void)level;
  block_f32_scalar(mb, nb, kb, a, lda, b, ldb, c, ldc);
}

const F32VecOps* f32_vec_ops(SimdLevel level) {
#if QNN_MICROKERNEL_X86
  if (level >= SimdLevel::kAvx2 && simd_supports(SimdLevel::kAvx2))
    return &kF32Avx2;
#endif
  (void)level;
  return nullptr;
}

void int_tiles(SimdLevel level, const IntTileJob& job) {
  if (job.m <= 0 || job.n <= 0) return;
  if (!simd_supports(level)) level = simd_support();
  if (level == SimdLevel::kAvx512 && int_tiles_avx512(job)) return;
  if (level >= SimdLevel::kAvx2 && int_tiles_avx2(job)) return;
  run_int_tiles<ScalarIsa>(job);
}

const IntVecOps* int_vec_ops(SimdLevel level) {
  if (!simd_supports(level)) level = simd_support();
  if (level == SimdLevel::kAvx512) {
    if (const IntVecOps* ops = int_vec_ops_avx512()) return ops;
  }
  return level >= SimdLevel::kAvx2 ? int_vec_ops_avx2() : nullptr;
}

}  // namespace qnn
