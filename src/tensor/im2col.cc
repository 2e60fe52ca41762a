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
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* channel = image + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in = cols + row * (oh * ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst = channel + iy * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride_w - g.pad_w + kw;
            if (ix >= 0 && ix < g.in_w) dst[ix] += in[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace qnn
