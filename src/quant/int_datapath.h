// The word-level data path of the native integer forward (DESIGN.md
// §15): input encode, requantization, pooling and the conv im2row pack,
// the steps around the integer tiles. Every routine takes the SIMD
// level it runs at. The scalar level is the reference; a vector level
// runs the tensor/int_tiles.h code of its IntVecOps table where that
// code takes the arguments, and produces the same words.
#pragma once

#include <cstdint>

#include "fixed/fixed_format.h"
#include "nn/pool.h"
#include "tensor/microkernel.h"

namespace qnn::quant {

// out[i] = f.to_raw(x[i]); WordT is int8_t, int16_t or int32_t.
template <typename WordT>
void encode_words(SimdLevel level, const float* x, std::int64_t n,
                  const FixedPointFormat& f, WordT* out);

// out[i] = the word v = (relu ? max(in[i], 0) : in[i]) on `to`'s grid:
// saturate(shift_raw_rounded(v, in_frac, to.frac_bits())). in == out is
// allowed.
template <typename WordT>
void requant_words(SimdLevel level, const WordT* in, std::int64_t n,
                   int in_frac, const FixedPointFormat& to, bool relu,
                   WordT* out);

// Pools `planes` consecutive planes (windows clipped to the plane) and
// requantizes from in_frac onto `to`: the max of a window, or its mean
// through to.to_raw().
template <typename WordT>
void pool_planes(SimdLevel level, const IntPoolGeom& g, nn::PoolMode mode,
                 int in_frac, const FixedPointFormat& to, std::int64_t planes,
                 const WordT* in, WordT* out);

// im2row of one conv panel (IntPatchGeom).
template <typename WordT>
void pack_patch(SimdLevel level, const IntPatchGeom& g, const WordT* img,
                std::int64_t j0, std::int64_t cols, WordT zero, WordT* panel);

}  // namespace qnn::quant
