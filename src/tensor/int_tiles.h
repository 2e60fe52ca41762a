// The integer tile-kernel family of tensor/microkernel.h, written once
// over a vector ISA (DESIGN.md §15). Included only by the units that
// instantiate it: tensor/microkernel.cc (scalar tier) and
// tensor/microkernel_avx2.cc / tensor/microkernel_avx512.cc, which
// compile with their ISA's flags. Everything here has internal linkage
// and calls no standard-library function, so a flagged unit never emits
// an out-of-line copy of shared code the linker could hand to an
// unflagged caller.
//
// An ISA type provides:
//   kLanes            output columns per vector (kIntPanel % kLanes == 0)
//   kRows8, kRows16   register-block rows per body (<= 8)
//   V                 kLanes 4-byte K groups, one per column
//   Acc8, Acc16       accumulators for kLanes columns
//   load(p)           kLanes consecutive groups of a panel
//   bcast(p)          one group of an A row in every lane
//   zero(acc), dot<kAUnsigned>(acc, a, b), store(acc, int64_t* out)
//   kVector           true for the vector ISAs, whose Acc8 and Acc16
//                     hold int32 column sums, and which also provide
//   store32(acc, int32_t* out)   kLanes int32 column sums
//   Wide16            int64 sums of kLanes columns, with zero(wide),
//                     widen_add(wide, acc16) and store(wide, out)
//   kRowsWide16       register-block rows of a blocked kS16 tile
// The tile: kRows rows x one kIntPanel-column panel, accumulated in
// registers and finished by the fused requant epilogue straight into
// the output words: in the int32 lanes when the job's bound allows it
// (IntEpilogue::i32), else stored once as int64. A kS16 tile at a
// vector level accumulates each block of k_block K pairs in its int32
// lanes and widens the block into the Wide16 sums; when one block
// covers K, the int32 lanes hold the whole sum and no Wide16 exists.
//
// The second half is the vector data path of IntVecOps (encode,
// requant, max pool, im2row pack) and the fake-quant kernels of
// FqVecOps, written over 16-lane GCC vector types that each flagged
// unit lowers to its own ISA (one zmm per int32 vector under AVX-512,
// two ymm under AVX2).
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>

#include "tensor/microkernel.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace qnn {

// Vector instantiations; each returns false (nullptr) when the build
// lacks it.
bool int_tiles_avx2(const IntTileJob& job);
bool int_tiles_avx512(const IntTileJob& job);
bool int_tiles_avx512_built();
const IntVecOps* int_vec_ops_avx2();
const IntVecOps* int_vec_ops_avx512();
const FqVecOps* fq_vec_ops_avx2();
const FqVecOps* fq_vec_ops_avx512();

namespace {

// ---------------------------------------------------------------------
// 16-lane vectors: one lane per panel column.
typedef std::int8_t VecS8 __attribute__((vector_size(16)));
typedef std::int16_t VecS16 __attribute__((vector_size(32)));
typedef std::int32_t VecS32 __attribute__((vector_size(64)));
typedef std::uint32_t VecU32 __attribute__((vector_size(64)));
typedef std::int64_t VecS64 __attribute__((vector_size(128)));
typedef float VecF32 __attribute__((vector_size(64)));
typedef double VecF64 __attribute__((vector_size(128)));

template <typename WordT>
struct WordLanes;
template <>
struct WordLanes<std::int8_t> {
  using V = VecS8;
};
template <>
struct WordLanes<std::int16_t> {
  using V = VecS16;
};
template <>
struct WordLanes<std::int32_t> {
  using V = VecS32;
};
template <typename WordT>
using WordVec = typename WordLanes<WordT>::V;

template <typename V, typename T>
inline V vload(const T* p) {
  V v{};
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
template <typename T, typename V>
inline void vstore(T* p, const V& v) {
  __builtin_memcpy(p, &v, sizeof v);
}
template <typename V, typename T>
inline V splat(T x) {
  using E = std::remove_cv_t<std::remove_reference_t<decltype(V{}[0])>>;
  return V{} + static_cast<E>(x);
}
template <typename V>
inline V vmax(const V& a, const V& b) {
  return a > b ? a : b;
}
// Stores the first n (< 16) lanes of v.
template <typename T, typename V>
inline void vstore_part(T* p, const V& v, std::int64_t n) {
  T lanes[kIntPanel];
  vstore(lanes, v);
  for (std::int64_t i = 0; i < n; ++i) p[i] = lanes[i];
}

// One shift-round-saturate step (IntRequant) on 16 int32 lanes. The
// shift is normalized to [-16, 30]: exact for any lane within 16 bits
// (a larger down-shift rounds it to 0 either way; after the clamp a
// larger up-shift saturates any nonzero lane either way), and for a
// wider lane whenever the caller's shift is already at most 30 and
// |lane| plus the rounding half fits int32.
struct LaneRequant {
  int shift = 0;
  VecS32 lo{}, hi{};
};
inline LaneRequant lane_requant(const IntRequant& q) {
  LaneRequant l;
  l.shift = q.shift < -16 ? -16 : (q.shift > 30 ? 30 : q.shift);
  l.lo = VecS32{} + static_cast<std::int32_t>(q.lo);
  l.hi = VecS32{} + static_cast<std::int32_t>(q.hi);
  return l;
}
inline void requant_lanes(VecS32& v, const LaneRequant& q) {
  if (q.shift > 0) {
    // Round half away from zero: round the magnitude, restore the sign.
    const VecS32 neg = v < 0;
    const VecS32 mag = ((neg ? -v : v) + (1 << (q.shift - 1))) >> q.shift;
    v = neg ? -mag : mag;
  } else if (q.shift < 0) {
    // An up-shift only grows |v|: saturating first gives the same word.
    v = v > q.lo ? v : q.lo;
    v = v < q.hi ? v : q.hi;
    v = v << -q.shift;
  }
  v = v > q.lo ? v : q.lo;
  v = v < q.hi ? v : q.hi;
}

inline std::int64_t clamp_word(std::int64_t v, const IntRequant& q) {
  return v < q.lo ? q.lo : (v > q.hi ? q.hi : v);
}

// One shift-round-saturate step over a tile row. The shift direction is
// a per-stage constant, so each branch is a straight vector loop.
inline void requant_row(std::int64_t* v, const IntRequant& q) {
  if (q.shift > 0) {
    const std::uint64_t half = std::uint64_t{1} << (q.shift - 1);
    for (int c = 0; c < kIntPanel; ++c) {
      // Round half away from zero: round the magnitude, restore the sign.
      const std::int64_t x = v[c];
      const std::int64_t m = static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(x < 0 ? -x : x) + half) >> q.shift);
      v[c] = x < 0 ? -m : m;
    }
  } else if (q.shift < 0) {
    // An up-shift only grows |v|: saturating first gives the same word
    // and keeps the shift in range.
    for (int c = 0; c < kIntPanel; ++c) v[c] = clamp_word(v[c], q) << -q.shift;
  }
  for (int c = 0; c < kIntPanel; ++c) v[c] = clamp_word(v[c], q);
}

// The scaled R1 (IntScaledRequant) of one accumulator: the reference
// executor's double operations in its order, then the clamp and a round
// half away from zero. Clamping first gives the reference's
// round-then-saturate word (the bounds are integers), and t + f is
// exact for a clamped x, so the rounding is exact too. NaN gives 0, as
// FixedPointFormat::to_raw does.
inline std::int64_t scaled_word(std::int64_t acc, std::int64_t add,
                                const IntScaledRequant& s,
                                const IntRequant& q) {
  double x = static_cast<double>(acc) * s.scale;
  x = (x + static_cast<double>(add)) * s.post;
  x *= s.grid;
  const double lo = static_cast<double>(q.lo), hi = static_cast<double>(q.hi);
  x = x == x ? x : 0.0;
  x = x < lo ? lo : (x > hi ? hi : x);
  const std::int64_t t = static_cast<std::int64_t>(x);
  const double f = x - static_cast<double>(t);
  return t + (f >= 0.5 ? 1 : 0) - (f <= -0.5 ? 1 : 0);
}

// The same step on 16 int32 accumulator lanes in place, with their
// addends.
inline void scaled_lanes(VecS32& v, const VecS64& add,
                         const IntScaledRequant& s, const IntRequant& q) {
  VecF64 x = __builtin_convertvector(v, VecF64) * s.scale;
  x = (x + __builtin_convertvector(add, VecF64)) * s.post;
  x *= s.grid;
  const VecF64 lo = splat<VecF64>(static_cast<double>(q.lo));
  const VecF64 hi = splat<VecF64>(static_cast<double>(q.hi));
  x = x == x ? x : VecF64{};
  x = x < lo ? lo : x;
  x = x > hi ? hi : x;
  VecS32 t = __builtin_convertvector(x, VecS32);
  const VecF64 f = x - __builtin_convertvector(t, VecF64);
  // A true compare is -1.
  t -= __builtin_convertvector(f >= 0.5, VecS32);
  t += __builtin_convertvector(f <= -0.5, VecS32);
  v = t;
}

template <typename OutT>
inline void finish_rows(const IntEpilogue& e, std::int64_t i0, int rows,
                        std::int64_t j0, std::int64_t cols,
                        const std::int64_t* tile) {
  alignas(64) std::int64_t col_add[kIntPanel];
  for (int c = 0; c < kIntPanel; ++c)
    col_add[c] = e.col_add != nullptr && c < cols ? e.col_add[j0 + c] : 0;
  for (int r = 0; r < rows; ++r) {
    const std::int64_t row_add = e.row_add != nullptr ? e.row_add[i0 + r] : 0;
    alignas(64) std::int64_t v[kIntPanel];
    if (e.scaled.on) {
      for (int c = 0; c < kIntPanel; ++c)
        v[c] = scaled_word(tile[r * kIntPanel + c], row_add + col_add[c],
                           e.scaled, e.requant);
    } else {
      for (int c = 0; c < kIntPanel; ++c)
        v[c] = tile[r * kIntPanel + c] + row_add + col_add[c];
      requant_row(v, e.requant);
    }
    if (e.relu) {
      for (int c = 0; c < kIntPanel; ++c) v[c] = v[c] > 0 ? v[c] : 0;
      requant_row(v, e.relu_requant);
    }
    OutT* dst = static_cast<OutT*>(e.out) + (i0 + r) * e.ldo + j0;
    for (std::int64_t c = 0; c < cols; ++c) dst[c] = static_cast<OutT>(v[c]);
  }
}

// The register epilogue (IntEpilogue::i32): addends and requant in the
// int32 lanes, wrapping adds (the bound makes the sum exact), then one
// narrowing store per row.
template <typename OutT>
inline void finish_rows_i32(const IntEpilogue& e, std::int64_t i0, int rows,
                            std::int64_t j0, std::int64_t cols,
                            const std::int32_t* tile) {
  using OutV = WordVec<OutT>;
  VecS64 col_add{};
  if (e.col_add != nullptr) {
    alignas(64) std::int64_t add[kIntPanel] = {};
    for (std::int64_t c = 0; c < cols; ++c) add[c] = e.col_add[j0 + c];
    col_add = vload<VecS64>(add);
  }
  const VecU32 col_add32 = __builtin_convertvector(col_add, VecU32);
  const LaneRequant q = lane_requant(e.requant);
  const LaneRequant relu_q = lane_requant(e.relu_requant);
  for (int r = 0; r < rows; ++r) {
    const std::int64_t row_add = e.row_add != nullptr ? e.row_add[i0 + r] : 0;
    VecS32 v;
    if (e.scaled.on) {
      v = vload<VecS32>(tile + r * kIntPanel);
      scaled_lanes(v, col_add + row_add, e.scaled, e.requant);
    } else {
      v = (VecS32)(vload<VecU32>(tile + r * kIntPanel) +
                   static_cast<std::uint32_t>(row_add) + col_add32);
      requant_lanes(v, q);
    }
    if (e.relu) {
      v = vmax(v, VecS32{});
      requant_lanes(v, relu_q);
    }
    OutT* dst = static_cast<OutT*>(e.out) + (i0 + r) * e.ldo + j0;
    const OutV words = __builtin_convertvector(v, OutV);
    if (cols == kIntPanel)
      vstore(dst, words);
    else
      vstore_part(dst, words, cols);
  }
}

template <class Isa, IntBody kBody, bool kAUnsigned, bool kBlocked, int kRows>
inline void int_tile(const IntTileJob& job, std::int64_t i0,
                     const unsigned char* panel, std::int64_t j0,
                     std::int64_t cols) {
  constexpr int kVecs = static_cast<int>(kIntPanel) / Isa::kLanes;
  using Acc = std::conditional_t<kBody == IntBody::kS8, typename Isa::Acc8,
                                 typename Isa::Acc16>;
  Acc acc[kRows][kVecs];
  const std::int64_t row_bytes = job.groups * kIntGroupBytes;
  const unsigned char* a =
      static_cast<const unsigned char*>(job.a) + i0 * row_bytes;
  // Zeroes acc, then accumulates K groups [g0, g1) into it.
  const auto accumulate = [&](std::int64_t g0, std::int64_t g1) {
    for (int r = 0; r < kRows; ++r)
      for (int v = 0; v < kVecs; ++v) Isa::zero(acc[r][v]);
    for (std::int64_t g = g0; g < g1; ++g) {
      const unsigned char* bp = panel + g * kIntPanel * kIntGroupBytes;
      typename Isa::V b[kVecs];
      for (int v = 0; v < kVecs; ++v)
        b[v] = Isa::load(bp + v * Isa::kLanes * kIntGroupBytes);
      for (int r = 0; r < kRows; ++r) {
        const typename Isa::V x =
            Isa::bcast(a + r * row_bytes + g * kIntGroupBytes);
        for (int v = 0; v < kVecs; ++v)
          Isa::template dot<kAUnsigned>(acc[r][v], x, b[v]);
      }
    }
  };
  alignas(64) std::int64_t tile[kRows * kIntPanel];
  if constexpr (kBlocked) {
    // Block by block: the int32 lanes hold one block's partial sums, and
    // each block widens into the int64 sums once.
    typename Isa::Wide16 wide[kRows][kVecs];
    for (int r = 0; r < kRows; ++r)
      for (int v = 0; v < kVecs; ++v) Isa::zero(wide[r][v]);
    for (std::int64_t g0 = 0; g0 < job.groups; g0 += job.k_block) {
      accumulate(g0, job.groups - g0 < job.k_block ? job.groups
                                                   : g0 + job.k_block);
      for (int r = 0; r < kRows; ++r)
        for (int v = 0; v < kVecs; ++v) Isa::widen_add(wide[r][v], acc[r][v]);
    }
    for (int r = 0; r < kRows; ++r)
      for (int v = 0; v < kVecs; ++v)
        Isa::store(wide[r][v], tile + r * kIntPanel + v * Isa::kLanes);
  } else {
    accumulate(0, job.groups);
    if constexpr (Isa::kVector) {
      if (job.epi.i32) {
        alignas(64) std::int32_t tile32[kRows * kIntPanel];
        for (int r = 0; r < kRows; ++r)
          for (int v = 0; v < kVecs; ++v)
            Isa::store32(acc[r][v], tile32 + r * kIntPanel + v * Isa::kLanes);
        if (job.epi.out_bytes == 1)
          finish_rows_i32<std::int8_t>(job.epi, i0, kRows, j0, cols, tile32);
        else
          finish_rows_i32<std::int16_t>(job.epi, i0, kRows, j0, cols, tile32);
        return;
      }
    }
    for (int r = 0; r < kRows; ++r)
      for (int v = 0; v < kVecs; ++v)
        Isa::store(acc[r][v], tile + r * kIntPanel + v * Isa::kLanes);
  }
  switch (job.epi.out_bytes) {
    case 1: finish_rows<std::int8_t>(job.epi, i0, kRows, j0, cols, tile); break;
    case 2: finish_rows<std::int16_t>(job.epi, i0, kRows, j0, cols, tile); break;
    default: finish_rows<std::int64_t>(job.epi, i0, kRows, j0, cols, tile);
  }
}

template <class Isa, IntBody kBody, bool kBlocked>
constexpr int tile_rows() {
  if constexpr (kBlocked) return Isa::kRowsWide16;
  else if constexpr (kBody == IntBody::kS8) return Isa::kRows8;
  else return Isa::kRows16;
}

// Panels outer (one panel stays in L1 while every row block streams
// past it), full register blocks of rows inner, then the row remainder
// in halving blocks.
template <class Isa, IntBody kBody, bool kAUnsigned, bool kBlocked>
void int_tiles_body(const IntTileJob& job) {
  constexpr int kRows = tile_rows<Isa, kBody, kBlocked>();
  const std::int64_t panel_bytes = job.groups * kIntPanel * kIntGroupBytes;
  const unsigned char* panel = static_cast<const unsigned char*>(job.b);
  for (std::int64_t j0 = 0; j0 < job.n; j0 += kIntPanel, panel += panel_bytes) {
    const std::int64_t cols = job.n - j0 < kIntPanel ? job.n - j0 : kIntPanel;
    std::int64_t i = 0;
    for (; i + kRows <= job.m; i += kRows)
      int_tile<Isa, kBody, kAUnsigned, kBlocked, kRows>(job, i, panel, j0,
                                                        cols);
    if constexpr (kRows > 4) {
      if (job.m - i >= 4) {
        int_tile<Isa, kBody, kAUnsigned, kBlocked, 4>(job, i, panel, j0, cols);
        i += 4;
      }
    }
    if constexpr (kRows > 2) {
      if (job.m - i >= 2) {
        int_tile<Isa, kBody, kAUnsigned, kBlocked, 2>(job, i, panel, j0, cols);
        i += 2;
      }
    }
    if constexpr (kRows > 1) {
      if (job.m - i >= 1)
        int_tile<Isa, kBody, kAUnsigned, kBlocked, 1>(job, i, panel, j0, cols);
    }
  }
}

// A kS16 job whose K spans more than one block takes the blocked tiles
// at the vector levels; the scalar tier accumulates in int64 and has no
// blocks.
template <class Isa>
void run_int_tiles(const IntTileJob& job) {
  if (job.body == IntBody::kS16) {
    if constexpr (Isa::kVector) {
      if (job.k_block < job.groups) {
        int_tiles_body<Isa, IntBody::kS16, false, true>(job);
        return;
      }
    }
    int_tiles_body<Isa, IntBody::kS16, false, false>(job);
  } else if (job.a_unsigned) {
    int_tiles_body<Isa, IntBody::kS8, true, false>(job);
  } else {
    int_tiles_body<Isa, IntBody::kS8, false, false>(job);
  }
}

// ---------------------------------------------------------------------
// The vector data path (IntWordOps) and the fake-quant kernels
// (FqVecOps). Only units with a vector ISA enabled compile them: the
// flagged units instantiate them, and in the scalar tier's unit their
// 64-byte vector arguments would only draw ABI warnings.
#if defined(__AVX2__)

// 2^e as a float, e in [-126, 127] (a normal float, built from its
// exponent field).
inline float pow2_float(int e) {
  const std::uint32_t bits = static_cast<std::uint32_t>(e + 127) << 23;
  float f = 0;
  __builtin_memcpy(&f, &bits, sizeof f);
  return f;
}

// The fixed-point word of 16 lanes of float (VecF32) or double
// (VecF64): s * scale (scale = 2^frac) rounded half away from zero and
// saturated to [lo, hi], int32 values exact in the lane type; NaN gives
// 0. Scaling by 2^frac is exact, except where the product leaves the
// lane type's normal range, and there the word is 0 or saturated
// either way.
template <typename VI = VecS32, typename VF, typename E>
inline VI fixed_word_lanes(VF s, E scale, const VF& lo, const VF& hi) {
  using T = std::remove_cv_t<std::remove_reference_t<decltype(s[0])>>;
  s *= scale;
  // Clamp to the raw range first (NaN passes both compares), so the
  // truncating convert stays in range; then NaN -> 0.
  s = s < lo ? lo : s;
  s = s > hi ? hi : s;
  s = s == s ? s : VF{};
  VI t = __builtin_convertvector(s, VI);
  const VF f = s - __builtin_convertvector(t, VF);  // exact
  // Round half away from zero; a true compare is -1.
  t -= __builtin_convertvector(f >= T(0.5), VI);
  t += __builtin_convertvector(f <= T(-0.5), VI);
  return t;
}

template <typename WordT>
void encode_words_vec(const float* x, std::int64_t n, int frac,
                      std::int32_t lo, std::int32_t hi, WordT* out) {
  const float scale = pow2_float(frac);
  const VecF32 flo = splat<VecF32>(static_cast<float>(lo));
  const VecF32 fhi = splat<VecF32>(static_cast<float>(hi));
  const auto lanes = [&](VecF32 s) {
    return __builtin_convertvector(fixed_word_lanes(s, scale, flo, fhi),
                                   WordVec<WordT>);
  };
  std::int64_t i = 0;
  for (; i + kIntPanel <= n; i += kIntPanel)
    vstore(out + i, lanes(vload<VecF32>(x + i)));
  if (i < n) {
    float rest[kIntPanel] = {};
    for (std::int64_t j = i; j < n; ++j) rest[j - i] = x[j];
    vstore_part(out + i, lanes(vload<VecF32>(rest)), n - i);
  }
}

template <typename WordT>
void requant_words_vec(const WordT* in, std::int64_t n, const IntRequant& q,
                       bool relu, WordT* out) {
  using V = WordVec<WordT>;
  const LaneRequant l = lane_requant(q);
  const auto lanes = [&](V w) {
    VecS32 v = __builtin_convertvector(w, VecS32);
    if (relu) v = vmax(v, VecS32{});
    requant_lanes(v, l);
    return __builtin_convertvector(v, V);
  };
  std::int64_t i = 0;
  for (; i + kIntPanel <= n; i += kIntPanel)
    vstore(out + i, lanes(vload<V>(in + i)));
  if (i < n) {
    WordT rest[kIntPanel] = {};
    for (std::int64_t j = i; j < n; ++j) rest[j - i] = in[j];
    vstore_part(out + i, lanes(vload<V>(rest)), n - i);
  }
}

// Per output row: the vertical max of the window's input rows into a
// row buffer whose border holds the minimum word (so the clipped
// columns never win), then the horizontal window max for 16 outputs at
// a time. Rows and planes are written in address order, so a full
// store that runs past a row only touches words written later; only
// the call's last store is partial.
template <typename WordT>
void pool_max_vec(const IntPoolGeom& g, std::int64_t planes, const WordT* in,
                  WordT* out) {
  using V = WordVec<WordT>;
  constexpr WordT kMin = std::numeric_limits<WordT>::min();
  WordT row[kIntPoolRowWords];
  for (std::int64_t i = 0; i < kIntPoolRowWords; ++i) row[i] = kMin;
  const auto window = [&](const WordT* p) {
    if (g.stride == 1) return vload<V>(p);
    if (g.stride == 2)
      return __builtin_shufflevector(vload<V>(p), vload<V>(p + kIntPanel), 0,
                                     2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22,
                                     24, 26, 28, 30);
    WordT lanes[kIntPanel];
    for (std::int64_t c = 0; c < kIntPanel; ++c) lanes[c] = p[c * g.stride];
    return vload<V>(lanes);
  };
  const WordT* const out_end = out + planes * g.oh * g.ow;
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const WordT* src = in + pl * g.h * g.w;
    for (std::int64_t y = 0; y < g.oh; ++y) {
      const std::int64_t top = y * g.stride - g.pad;
      const std::int64_t y0 = top < 0 ? 0 : top;
      const std::int64_t y1 = top + g.kernel < g.h ? top + g.kernel : g.h;
      WordT* r = row + g.pad;
      const auto column_max = [&](std::int64_t x) {
        V m = vload<V>(src + y0 * g.w + x);
        for (std::int64_t yy = y0 + 1; yy < y1; ++yy)
          m = vmax(m, vload<V>(src + yy * g.w + x));
        vstore(r + x, m);
      };
      std::int64_t x = 0;
      for (; x + kIntPanel <= g.w; x += kIntPanel) column_max(x);
      if (x < g.w && g.w >= kIntPanel) {
        column_max(g.w - kIntPanel);  // overlaps the last full vector
      } else {
        for (; x < g.w; ++x) {
          WordT m = src[y0 * g.w + x];
          for (std::int64_t yy = y0 + 1; yy < y1; ++yy)
            m = src[yy * g.w + x] > m ? src[yy * g.w + x] : m;
          r[x] = m;
        }
      }
      WordT* dst = out + (pl * g.oh + y) * g.ow;
      for (std::int64_t x0 = 0; x0 < g.ow; x0 += kIntPanel) {
        V m = splat<V>(kMin);
        for (std::int64_t kx = 0; kx < g.kernel; ++kx)
          m = vmax(m, window(row + x0 * g.stride + kx));
        if (dst + x0 + kIntPanel <= out_end)
          vstore(dst + x0, m);
        else
          vstore_part(dst + x0, m, out_end - dst - x0);
      }
    }
  }
}

// Stride 1: within one output row the panel's columns read consecutive
// words, so each K row of the panel is at most ceil(16 / ow) + 1 runs of
// contiguous words. Each run is one unaligned load blended into the row
// under its lane mask; groups of K rows are then interleaved into the
// panel's 4-byte groups.
template <typename WordT>
void pack_patch_vec(const IntPatchGeom& g, const WordT* img, std::int64_t j0,
                    std::int64_t cols, WordT zero, WordT* panel) {
  using V = WordVec<WordT>;
  constexpr int kPer = kIntGroupBytes / static_cast<int>(sizeof(WordT));
  V iota{};
  for (int c = 0; c < kIntPanel; ++c) iota[c] = static_cast<WordT>(c);
  std::int64_t run_at[kIntPanel];  // word offset of lane 0 of each run
  V run_mask[kIntPanel];
  int runs = 0;
  for (std::int64_t c = 0; c < cols;) {
    const std::int64_t y = (j0 + c) / g.ow, x = (j0 + c) % g.ow;
    const std::int64_t len = cols - c < g.ow - x ? cols - c : g.ow - x;
    run_at[runs] = y * g.wp + x - c;
    run_mask[runs] = (iota >= splat<V>(c)) & (iota < splat<V>(c + len));
    ++runs;
    c += len;
  }
  const V zeros = splat<V>(zero);
  const std::int64_t k = g.k();
  std::int64_t ci = 0, ky = 0, kx = 0;
  const auto next_row = [&](std::int64_t r) {
    if (r >= k) return zeros;
    const WordT* src = img + (ci * g.hp + ky) * g.wp + kx;
    if (++kx == g.kernel) {
      kx = 0;
      if (++ky == g.kernel) {
        ky = 0;
        ++ci;
      }
    }
    V v = zeros;
    for (int i = 0; i < runs; ++i)
      v = run_mask[i] ? vload<V>(src + run_at[i]) : v;
    return v;
  };
  const std::int64_t groups = (k + kPer - 1) / kPer;
  for (std::int64_t grp = 0; grp < groups; ++grp) {
    WordT* dst = panel + grp * kIntPanel * kPer;
    const std::int64_t r = grp * kPer;
    if constexpr (kPer == 4) {
      const V r0 = next_row(r), r1 = next_row(r + 1);
      const V r2 = next_row(r + 2), r3 = next_row(r + 3);
      const auto pairs = [](V a, V b) {
        return (VecS16)(__builtin_shufflevector(
            a, b, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23, 8,
            24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31));
      };
      const VecS16 lo = pairs(r0, r1), hi = pairs(r2, r3);
      vstore(dst, __builtin_shufflevector(
                      lo, hi, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22,
                      7, 23, 8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14,
                      30, 15, 31));
    } else {
      const V r0 = next_row(r), r1 = next_row(r + 1);
      vstore(dst, __builtin_shufflevector(
                      r0, r1, 0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22,
                      7, 23, 8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14,
                      30, 15, 31));
    }
  }
}

template <typename WordT>
constexpr IntWordOps<WordT> vec_word_ops() {
  return {encode_words_vec<WordT>, requant_words_vec<WordT>,
          pool_max_vec<WordT>, pack_patch_vec<WordT>};
}

constexpr IntVecOps vec_int_ops() {
  return {vec_word_ops<std::int8_t>(), vec_word_ops<std::int16_t>(),
          encode_words_vec<std::int32_t>};
}

// ---------------------------------------------------------------------
// The fake-quant kernels (FqVecOps).

// Guard classes of 16 lanes at a time, counted in int32 lanes (a true
// compare is -1), so a span may hold up to 2^35 values.
struct GuardLanes {
  VecS32 saturated{}, nan{}, inf{};
  VecF32 limit{};

  void count(const VecF32& v) {
    const VecF32 mag = (VecF32)((VecU32)v & 0x7fffffffu);
    const VecF32 inf_lanes = splat<VecF32>(__builtin_inff());
    // NaN fails every ordered compare, so it is never saturated.
    nan -= v != v;
    inf -= mag == inf_lanes;
    saturated -= (mag > limit) & (mag != inf_lanes);
  }
  static std::int64_t sum(const VecS32& v) {
    std::int64_t s = 0;
    for (int i = 0; i < kIntPanel; ++i) s += v[i];
    return s;
  }
  void add_to(FqCounts* c) const {
    c->saturated += sum(saturated);
    c->nan += sum(nan);
    c->inf += sum(inf);
  }
};

// x[i] = lanes(x[i]) over the span, 16 at a time, counting the guard
// classes of the inputs. The tail pads with zeros, which count nothing.
template <typename Lanes>
void fq_span(float* x, std::int64_t n, float limit, FqCounts* counts,
             const Lanes& lanes) {
  GuardLanes g;
  g.limit = splat<VecF32>(limit);
  std::int64_t i = 0;
  for (; i + kIntPanel <= n; i += kIntPanel) {
    const VecF32 v = vload<VecF32>(x + i);
    g.count(v);
    vstore(x + i, lanes(v));
  }
  if (i < n) {
    float rest[kIntPanel] = {};
    for (std::int64_t j = i; j < n; ++j) rest[j - i] = x[j];
    const VecF32 v = vload<VecF32>(rest);
    g.count(v);
    vstore_part(x + i, lanes(v), n - i);
  }
  g.add_to(counts);
}

// The word is at most 24 bits, so it and its product with the step
// 2^-frac (a normal float) are each one correctly rounded float: the
// reference's exact double product, rounded once to float.
void fq_fixed_vec(float* x, std::int64_t n, int frac, std::int32_t lo,
                  std::int32_t hi, float limit, FqCounts* counts) {
  const float scale = pow2_float(frac), step = pow2_float(-frac);
  const VecF32 flo = splat<VecF32>(static_cast<float>(lo));
  const VecF32 fhi = splat<VecF32>(static_cast<float>(hi));
  fq_span(x, n, limit, counts, [&](const VecF32& v) {
    return __builtin_convertvector(fixed_word_lanes(v, scale, flo, fhi),
                                   VecF32) *
           step;
  });
}

// The same in double lanes: every step is exact in double (a float
// times 2^frac, the clamp to int32 bounds, the truncation and its
// remainder), and the word times the step is rounded once, to float.
void fq_fixed_wide_vec(float* x, std::int64_t n, int frac, std::int32_t lo,
                       std::int32_t hi, float limit, FqCounts* counts) {
  const double scale = pow2_float(frac), step = pow2_float(-frac);
  const VecF64 dlo = splat<VecF64>(static_cast<double>(lo));
  const VecF64 dhi = splat<VecF64>(static_cast<double>(hi));
  fq_span(x, n, limit, counts, [&](const VecF32& v) {
    const VecS32 t = fixed_word_lanes(__builtin_convertvector(v, VecF64),
                                      scale, dlo, dhi);
    return __builtin_convertvector(__builtin_convertvector(t, VecF64) * step,
                                   VecF32);
  });
}

// log2 rounding read off the float: |v| = 2^e * (1 + m / 2^23) lies
// between 2^e and 2^(e+1), and their arithmetic midpoint 1.5 * 2^e is
// where mantissa bit 22 turns on. A subnormal at or above the zero
// threshold (exp_min = -126 only) has that bit set and e = -127, so it
// lands on 2^-126 as in the reference. Inf has exponent 128 and clamps
// to exp_max; NaN fails the threshold compare.
void fq_pow2_vec(float* x, std::int64_t n, int exp_min, int exp_max,
                 float limit, FqCounts* counts) {
  const VecF32 zero_below = splat<VecF32>(pow2_float(exp_min) * 0.5f);
  const VecS32 lo = splat<VecS32>(exp_min), hi = splat<VecS32>(exp_max);
  fq_span(x, n, limit, counts, [&](const VecF32& v) {
    const VecU32 bits = (VecU32)v;
    const VecU32 mag = bits & 0x7fffffffu;
    VecS32 e = (VecS32)(mag >> 23) - 127 + (VecS32)((mag >> 22) & 1u);
    e = e < lo ? lo : e;
    e = e > hi ? hi : e;
    const VecU32 q = (bits & 0x80000000u) | ((VecU32)(e + 127) << 23);
    return (VecF32)((VecF32)mag >= zero_below ? q : VecU32{});
  });
}

void fq_binary_vec(float* x, std::int64_t n, float scale, float limit,
                   FqCounts* counts) {
  const VecF32 pos = splat<VecF32>(scale), neg = splat<VecF32>(-scale);
  fq_span(x, n, limit, counts,
          [&](const VecF32& v) { return v < 0.0f ? neg : pos; });
}

// The calibration scores (FqVecOps::fixed_sse and pow2_sse): candidate
// c in lane c of one-register double parts (GCC lowers a select on a
// wider generic vector lane by lane). Each step broadcasts one sample to
// every lane, so every lane adds its errors in sample order with one
// fused step each, as the reference loop does.
#if defined(__AVX512F__)
inline constexpr int kPartLanes = 8;
#else
inline constexpr int kPartLanes = 4;
#endif
typedef double F64Part __attribute__((vector_size(8 * kPartLanes)));
typedef std::int64_t S64Part __attribute__((vector_size(8 * kPartLanes)));
typedef std::int32_t S32Part __attribute__((vector_size(4 * kPartLanes)));
inline constexpr int kMaxParts = kIntPanel / kPartLanes;

// a * b + c in every lane, rounded once (vfmadd): these units build
// with -ffp-contract=off, so the fused step is spelled out.
inline F64Part fma_part(F64Part a, F64Part b, F64Part c) {
#if defined(__AVX512F__)
  return _mm512_fmadd_pd(a, b, c);
#else
  return _mm256_fmadd_pd(a, b, c);
#endif
}

// sse[c] for c < candidates: `quantize(v, q)` sets q[p] to the double
// values of sample v on the grids of part p's lanes.
template <typename Quantize>
void sse_parts(const float* x, std::int64_t n, int candidates, double* sse,
               const Quantize& quantize) {
  const int parts = (candidates + kPartLanes - 1) / kPartLanes;
  F64Part acc[kMaxParts] = {};
  for (std::int64_t i = 0; i < n; ++i) {
    F64Part q[kMaxParts];
    quantize(x[i], q);
    for (int p = 0; p < parts; ++p) {
      const F64Part e = static_cast<double>(x[i]) - q[p];
      acc[p] = fma_part(e, e, acc[p]);
    }
  }
  for (int c = 0; c < candidates; ++c)
    sse[c] = acc[c / kPartLanes][c % kPartLanes];
}

// The word of the sample on each lane's grid times its step, both exact
// in double as the reference's to_raw and from_raw are. Up to 24 bits
// the words come from one float vector, as in fq_fixed_vec; wider ones
// from the double parts.
void fixed_sse_vec(const float* x, std::int64_t n, int frac0, int candidates,
                   std::int32_t lo, std::int32_t hi, double* sse) {
  VecF32 scale{};
  F64Part dscale[kMaxParts] = {}, step[kMaxParts] = {};
  for (int c = 0; c < kIntPanel; ++c) {
    const int frac = frac0 + (c < candidates ? c : 0);
    scale[c] = pow2_float(frac);
    dscale[c / kPartLanes][c % kPartLanes] = pow2_float(frac);
    step[c / kPartLanes][c % kPartLanes] = pow2_float(-frac);
  }
  if (hi < (1 << 24)) {
    const VecF32 flo = splat<VecF32>(static_cast<float>(lo));
    const VecF32 fhi = splat<VecF32>(static_cast<float>(hi));
    sse_parts(x, n, candidates, sse, [&](float v, F64Part* q) {
      S32Part t[kMaxParts];
      const VecS32 words = fixed_word_lanes(splat<VecF32>(v), scale, flo, fhi);
      __builtin_memcpy(t, &words, sizeof t);
      for (int p = 0; p < kMaxParts; ++p)
        q[p] = __builtin_convertvector(t[p], F64Part) * step[p];
    });
    return;
  }
  const F64Part dlo = splat<F64Part>(static_cast<double>(lo));
  const F64Part dhi = splat<F64Part>(static_cast<double>(hi));
  sse_parts(x, n, candidates, sse, [&](float v, F64Part* q) {
    for (int p = 0; p < kMaxParts; ++p) {
      const S32Part t = fixed_word_lanes<S32Part>(
          splat<F64Part>(static_cast<double>(v)), dscale[p], dlo, dhi);
      q[p] = __builtin_convertvector(t, F64Part) * step[p];
    }
  });
}

// fq_pow2_vec's rounding with the sample's exponent read once, then
// clamped per lane and built as a double 2^e.
void pow2_sse_vec(const float* x, std::int64_t n, int exp_min0, int exp_max0,
                  int candidates, double* sse) {
  S64Part lo[kMaxParts] = {}, hi[kMaxParts] = {};
  F64Part zero_below[kMaxParts] = {};
  for (int c = 0; c < kIntPanel; ++c) {
    const int shift = c < candidates ? c : 0;
    lo[c / kPartLanes][c % kPartLanes] = exp_min0 - shift;
    hi[c / kPartLanes][c % kPartLanes] = exp_max0 - shift;
    zero_below[c / kPartLanes][c % kPartLanes] =
        pow2_float(exp_min0 - shift) * 0.5f;
  }
  sse_parts(x, n, candidates, sse, [&](float v, F64Part* q) {
    std::uint32_t bits = 0;
    __builtin_memcpy(&bits, &v, sizeof bits);
    const std::uint32_t mag = bits & 0x7fffffffu;
    float fmag = 0;
    __builtin_memcpy(&fmag, &mag, sizeof fmag);
    const std::int64_t e0 =
        static_cast<std::int64_t>(mag >> 23) - 127 + ((mag >> 22) & 1u);
    const std::int64_t sign = static_cast<std::int64_t>(
        std::uint64_t{bits & 0x80000000u} << 32);
    for (int p = 0; p < kMaxParts; ++p) {
      S64Part e = splat<S64Part>(e0);
      e = e < lo[p] ? lo[p] : e;
      e = e > hi[p] ? hi[p] : e;
      const S64Part keep = static_cast<double>(fmag) >= zero_below[p];
      q[p] = (F64Part)((sign | (e + 1023) << 52) & keep);
    }
  });
}

constexpr FqVecOps vec_fq_ops() {
  return {fq_fixed_vec, fq_fixed_wide_vec, fq_pow2_vec, fq_binary_vec,
          fixed_sse_vec, pow2_sse_vec};
}

#endif  // __AVX2__

}  // namespace
}  // namespace qnn
