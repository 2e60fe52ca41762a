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
// The tile: kRows rows x one kIntPanel-column panel, accumulated across
// all K groups in registers, stored once as int64 and finished by the
// fused requant epilogue straight into the output words.
#pragma once

#include <cstdint>
#include <type_traits>

#include "tensor/microkernel.h"

namespace qnn {

// Vector instantiations; each returns false when the build lacks it.
bool int_tiles_avx2(const IntTileJob& job);
bool int_tiles_avx512(const IntTileJob& job);
bool int_tiles_avx512_built();

namespace {

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
    for (int c = 0; c < kIntPanel; ++c)
      v[c] = tile[r * kIntPanel + c] + row_add + col_add[c];
    requant_row(v, e.requant);
    if (e.relu) {
      for (int c = 0; c < kIntPanel; ++c) v[c] = v[c] > 0 ? v[c] : 0;
      requant_row(v, e.relu_requant);
    }
    OutT* dst = static_cast<OutT*>(e.out) + (i0 + r) * e.ldo + j0;
    for (std::int64_t c = 0; c < cols; ++c) dst[c] = static_cast<OutT>(v[c]);
  }
}

template <class Isa, IntBody kBody, bool kAUnsigned, int kRows>
inline void int_tile(const IntTileJob& job, std::int64_t i0,
                     const unsigned char* panel, std::int64_t j0,
                     std::int64_t cols) {
  constexpr int kVecs = static_cast<int>(kIntPanel) / Isa::kLanes;
  using Acc = std::conditional_t<kBody == IntBody::kS8, typename Isa::Acc8,
                                 typename Isa::Acc16>;
  Acc acc[kRows][kVecs];
  for (int r = 0; r < kRows; ++r)
    for (int v = 0; v < kVecs; ++v) Isa::zero(acc[r][v]);
  const std::int64_t row_bytes = job.groups * kIntGroupBytes;
  const unsigned char* a =
      static_cast<const unsigned char*>(job.a) + i0 * row_bytes;
  for (std::int64_t g = 0; g < job.groups; ++g) {
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
  alignas(64) std::int64_t tile[kRows * kIntPanel];
  for (int r = 0; r < kRows; ++r)
    for (int v = 0; v < kVecs; ++v)
      Isa::store(acc[r][v], tile + r * kIntPanel + v * Isa::kLanes);
  switch (job.epi.out_bytes) {
    case 1: finish_rows<std::int8_t>(job.epi, i0, kRows, j0, cols, tile); break;
    case 2: finish_rows<std::int16_t>(job.epi, i0, kRows, j0, cols, tile); break;
    default: finish_rows<std::int64_t>(job.epi, i0, kRows, j0, cols, tile);
  }
}

// Panels outer (one panel stays in L1 while every row block streams
// past it), full register blocks of rows inner, then the row remainder
// in halving blocks.
template <class Isa, IntBody kBody, bool kAUnsigned>
void int_tiles_body(const IntTileJob& job) {
  constexpr int kRows = kBody == IntBody::kS8 ? Isa::kRows8 : Isa::kRows16;
  const std::int64_t panel_bytes = job.groups * kIntPanel * kIntGroupBytes;
  const unsigned char* panel = static_cast<const unsigned char*>(job.b);
  for (std::int64_t j0 = 0; j0 < job.n; j0 += kIntPanel, panel += panel_bytes) {
    const std::int64_t cols = job.n - j0 < kIntPanel ? job.n - j0 : kIntPanel;
    std::int64_t i = 0;
    for (; i + kRows <= job.m; i += kRows)
      int_tile<Isa, kBody, kAUnsigned, kRows>(job, i, panel, j0, cols);
    if constexpr (kRows > 4) {
      if (job.m - i >= 4) {
        int_tile<Isa, kBody, kAUnsigned, 4>(job, i, panel, j0, cols);
        i += 4;
      }
    }
    if constexpr (kRows > 2) {
      if (job.m - i >= 2) {
        int_tile<Isa, kBody, kAUnsigned, 2>(job, i, panel, j0, cols);
        i += 2;
      }
    }
    if constexpr (kRows > 1) {
      if (job.m - i >= 1)
        int_tile<Isa, kBody, kAUnsigned, 1>(job, i, panel, j0, cols);
    }
  }
}

template <class Isa>
void run_int_tiles(const IntTileJob& job) {
  if (job.body == IntBody::kS16) {
    int_tiles_body<Isa, IntBody::kS16, false>(job);
  } else if (job.a_unsigned) {
    int_tiles_body<Isa, IntBody::kS8, true>(job);
  } else {
    int_tiles_body<Isa, IntBody::kS8, false>(job);
  }
}

}  // namespace
}  // namespace qnn
