#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"
#include "tensor/microkernel.h"

namespace qnn {

TapRange tap_range(std::int64_t out, std::int64_t in, std::int64_t stride,
                   std::int64_t offset) {
  const std::int64_t lo =
      offset >= 0 ? 0 : std::min(out, (-offset + stride - 1) / stride);
  const std::int64_t last = in - 1 - offset;  // x * stride <= last
  const std::int64_t hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  return {lo, std::max(lo, hi)};
}

void im2col(const ConvGeometry& g, const float* image, float* cols) {
  QNN_SPAN("im2col", "tensor");
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const F32VecOps* vec =
      g.stride_h == 1 && g.stride_w == 1 ? f32_vec_ops(active_simd_level())
                                         : nullptr;
  float* out = cols;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const float* channel = image + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const TapRange ys = tap_range(oh, g.in_h, g.stride_h, kh - g.pad_h);
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, out += oh * ow) {
        const std::int64_t dx = kw - g.pad_w;
        const TapRange xs = tap_range(ow, g.in_w, g.stride_w, dx);
        if (vec != nullptr) {
          vec->im2col_row({g.in_w, oh, ow, (kh - g.pad_h) * g.in_w + dx,
                           ys.lo, ys.hi, xs.lo, xs.hi},
                          channel, out);
          continue;
        }
        std::fill(out, out + ys.lo * ow, 0.0f);
        for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
          float* dst = out + y * ow;
          const float* src =
              channel + (y * g.stride_h - g.pad_h + kh) * g.in_w + dx;
          std::fill(dst, dst + xs.lo, 0.0f);
          if (g.stride_w == 1) {
            std::memcpy(dst + xs.lo, src + xs.lo,
                        sizeof(float) *
                            static_cast<std::size_t>(xs.hi - xs.lo));
          } else {
            for (std::int64_t x = xs.lo; x < xs.hi; ++x)
              dst[x] = src[x * g.stride_w];
          }
          std::fill(dst + xs.hi, dst + ow, 0.0f);
        }
        std::fill(out + ys.hi * ow, out + oh * ow, 0.0f);
      }
    }
  }
}

void col2im(const ConvGeometry& g, const float* cols, float* image) {
  QNN_SPAN("col2im", "tensor");
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const F32VecOps* vec =
      g.stride_h == 1 && g.stride_w == 1 ? f32_vec_ops(active_simd_level())
                                         : nullptr;
  const float* in = cols;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* channel = image + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const TapRange ys = tap_range(oh, g.in_h, g.stride_h, kh - g.pad_h);
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, in += oh * ow) {
        const std::int64_t dx = kw - g.pad_w;
        const TapRange xs = tap_range(ow, g.in_w, g.stride_w, dx);
        if (vec != nullptr) {
          vec->col2im_row({g.in_w, oh, ow, (kh - g.pad_h) * g.in_w + dx,
                           ys.lo, ys.hi, xs.lo, xs.hi},
                          in, channel);
          continue;
        }
        for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
          const float* src = in + y * ow;
          const std::int64_t base =
              (y * g.stride_h - g.pad_h + kh) * g.in_w + dx;
          for (std::int64_t x = xs.lo; x < xs.hi; ++x)
            channel[base + x * g.stride_w] += src[x];
        }
      }
    }
  }
}

}  // namespace qnn
