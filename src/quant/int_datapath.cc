#include "quant/int_datapath.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fixed/fixed_arith.h"
#include "tensor/int_gemm.h"

namespace qnn::quant {
namespace {

std::int64_t saturate(std::int64_t raw, const FixedPointFormat& f) {
  return std::clamp(raw, f.raw_min(), f.raw_max());
}

template <typename WordT>
const IntWordOps<WordT>* vector_ops(SimdLevel level) {
  const IntVecOps* ops = int_vec_ops(level);
  if (ops == nullptr) return nullptr;
  if constexpr (sizeof(WordT) == 1) {
    return &ops->s8;
  } else {
    return &ops->s16;
  }
}

// The vector max pool's preconditions: every window holds a word and
// the padded row fits its buffer.
bool vector_pool_fits(const IntPoolGeom& g) {
  const std::int64_t cols = int_panels(g.ow) * kIntPanel;
  return g.pad < g.kernel && (g.oh - 1) * g.stride - g.pad < g.h &&
         (g.ow - 1) * g.stride - g.pad < g.w &&
         g.pad + g.w <= kIntPoolRowWords &&
         g.stride * cols + g.kernel + 2 * kIntPanel <= kIntPoolRowWords;
}

}  // namespace

template <typename WordT>
void encode_words(SimdLevel level, const float* x, std::int64_t n,
                  const FixedPointFormat& f, WordT* out) {
  const IntVecOps* vec = int_vec_ops(level);
  if (vec != nullptr && f.rounding() == Rounding::kNearest &&
      f.total_bits() <= 24 && f.frac_bits() >= -126 &&
      f.frac_bits() <= 127) {
    const auto encode = [&] {
      if constexpr (sizeof(WordT) == 1) {
        return vec->s8.encode;
      } else if constexpr (sizeof(WordT) == 2) {
        return vec->s16.encode;
      } else {
        return vec->encode_s32;
      }
    }();
    encode(x, n, f.frac_bits(), static_cast<std::int32_t>(f.raw_min()),
           static_cast<std::int32_t>(f.raw_max()), out);
    return;
  }
  for (std::int64_t i = 0; i < n; ++i)
    out[i] = static_cast<WordT>(f.to_raw(x[i]));
}

template <typename WordT>
void requant_words(SimdLevel level, const WordT* in, std::int64_t n,
                   int in_frac, const FixedPointFormat& to, bool relu,
                   WordT* out) {
  if (const IntWordOps<WordT>* vec = vector_ops<WordT>(level)) {
    vec->requant(in, n,
                 IntRequant{in_frac - to.frac_bits(), to.raw_min(),
                            to.raw_max()},
                 relu, out);
    return;
  }
  const int out_frac = to.frac_bits();
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t v = relu ? std::max<std::int64_t>(in[i], 0) : in[i];
    out[i] =
        static_cast<WordT>(saturate(shift_raw_rounded(v, in_frac, out_frac), to));
  }
}

template <typename WordT>
void pool_planes(SimdLevel level, const IntPoolGeom& g, nn::PoolMode mode,
                 int in_frac, const FixedPointFormat& to, std::int64_t planes,
                 const WordT* in, WordT* out) {
  const IntWordOps<WordT>* vec = vector_ops<WordT>(level);
  if (vec != nullptr && mode == nn::PoolMode::kMax && vector_pool_fits(g)) {
    // Max commutes with the monotone requant: pool the raw words, then
    // requantize the maxima.
    vec->pool_max(g, planes, in, out);
    vec->requant(out, planes * g.oh * g.ow,
                 IntRequant{in_frac - to.frac_bits(), to.raw_min(),
                            to.raw_max()},
                 false, out);
    return;
  }
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const WordT* src = in + pl * g.h * g.w;
    WordT* dst = out + pl * g.oh * g.ow;
    for (std::int64_t y = 0; y < g.oh; ++y) {
      const std::int64_t y0 = std::max<std::int64_t>(0, y * g.stride - g.pad);
      const std::int64_t y1 =
          std::min<std::int64_t>(g.h, y * g.stride - g.pad + g.kernel);
      for (std::int64_t x = 0; x < g.ow; ++x) {
        const std::int64_t x0 =
            std::max<std::int64_t>(0, x * g.stride - g.pad);
        const std::int64_t x1 =
            std::min<std::int64_t>(g.w, x * g.stride - g.pad + g.kernel);
        if (mode == nn::PoolMode::kMax) {
          std::int64_t best = std::numeric_limits<std::int64_t>::min();
          for (std::int64_t yy = y0; yy < y1; ++yy)
            for (std::int64_t xx = x0; xx < x1; ++xx)
              best = std::max<std::int64_t>(best, src[yy * g.w + xx]);
          dst[y * g.ow + x] = static_cast<WordT>(saturate(
              shift_raw_rounded(best, in_frac, to.frac_bits()), to));
        } else {
          std::int64_t acc = 0;
          for (std::int64_t yy = y0; yy < y1; ++yy)
            for (std::int64_t xx = x0; xx < x1; ++xx)
              acc += src[yy * g.w + xx];
          const double count = static_cast<double>((y1 - y0) * (x1 - x0));
          const double value =
              static_cast<double>(acc) * std::ldexp(1.0, -in_frac) / count;
          dst[y * g.ow + x] = static_cast<WordT>(to.to_raw(value));
        }
      }
    }
  }
}

template <typename WordT>
void pack_patch(SimdLevel level, const IntPatchGeom& g, const WordT* img,
                std::int64_t j0, std::int64_t cols, WordT zero,
                WordT* panel) {
  const IntWordOps<WordT>* vec = vector_ops<WordT>(level);
  if (vec != nullptr && g.stride == 1) {
    vec->pack_patch(g, img, j0, cols, zero, panel);
    return;
  }
  constexpr std::int64_t per = int_group_words<WordT>;
  // Window origin of each column; columns past the image read the
  // origin (any in-bounds word) and store zero instead.
  std::int64_t base[kIntPanel];
  for (std::int64_t c = 0; c < kIntPanel; ++c) {
    const std::int64_t pos = j0 + c;
    base[c] =
        c < cols ? (pos / g.ow) * g.stride * g.wp + (pos % g.ow) * g.stride
                 : 0;
  }
  std::int64_t r = 0;
  for (std::int64_t ci = 0; ci < g.in_c; ++ci) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++r) {
        const WordT* src = img + (ci * g.hp + ky) * g.wp + kx;
        WordT* dst = panel + (r / per) * kIntPanel * per + r % per;
        for (std::int64_t c = 0; c < kIntPanel; ++c)
          dst[c * per] = c < cols ? src[base[c]] : zero;
      }
    }
  }
  for (; r < int_row_words<WordT>(g.k()); ++r) {
    WordT* dst = panel + (r / per) * kIntPanel * per + r % per;
    for (std::int64_t c = 0; c < kIntPanel; ++c) dst[c * per] = zero;
  }
}

#define QNN_INT_DATAPATH(WordT)                                             \
  template void encode_words<WordT>(SimdLevel, const float*, std::int64_t, \
                                    const FixedPointFormat&, WordT*);      \
  template void requant_words<WordT>(SimdLevel, const WordT*,              \
                                     std::int64_t, int,                    \
                                     const FixedPointFormat&, bool,        \
                                     WordT*);                              \
  template void pool_planes<WordT>(SimdLevel, const IntPoolGeom&,          \
                                   nn::PoolMode, int,                      \
                                   const FixedPointFormat&, std::int64_t,  \
                                   const WordT*, WordT*);                  \
  template void pack_patch<WordT>(SimdLevel, const IntPatchGeom&,          \
                                  const WordT*, std::int64_t,              \
                                  std::int64_t, WordT, WordT*);
QNN_INT_DATAPATH(std::int8_t)
QNN_INT_DATAPATH(std::int16_t)
#undef QNN_INT_DATAPATH
template void encode_words<std::int32_t>(SimdLevel, const float*,
                                         std::int64_t,
                                         const FixedPointFormat&,
                                         std::int32_t*);

}  // namespace qnn::quant
