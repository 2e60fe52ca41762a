// im2col / col2im lowering for convolution.
//
// im2col unfolds each (kernel-sized) receptive field of a single image
// into one column so convolution becomes a GEMM:
//   output[Cout, OH*OW] = W[Cout, Cin*KH*KW] * cols[Cin*KH*KW, OH*OW].
// col2im is its adjoint and is used for the input gradient.
#pragma once

#include <cstdint>

namespace qnn {

// Geometry of a 2-D sliding-window op (convolution or pooling).
struct ConvGeometry {
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t kernel_h = 0, kernel_w = 0;
  std::int64_t stride_h = 1, stride_w = 1;
  std::int64_t pad_h = 0, pad_w = 0;

  std::int64_t out_h() const {
    return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  std::int64_t out_w() const {
    return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  // Rows of the unfolded matrix.
  std::int64_t col_rows() const { return in_c * kernel_h * kernel_w; }
  // Columns of the unfolded matrix.
  std::int64_t col_cols() const { return out_h() * out_w(); }
};

// The outputs x in [0, out) whose tap x * stride + offset lands in
// [0, in), as [lo, hi) (empty when none does): one range per im2col K
// row, so the copy loops carry no bounds test. With in = extent -
// kernel + 1 and offset = -pad it is the set of pooling windows that
// lie wholly inside the input.
struct TapRange {
  std::int64_t lo = 0, hi = 0;
};
TapRange tap_range(std::int64_t out, std::int64_t in, std::int64_t stride,
                   std::int64_t offset);

// `image` is one sample, CHW contiguous; `cols` has room for
// col_rows() * col_cols() floats. Out-of-bounds taps read as zero.
void im2col(const ConvGeometry& g, const float* image, float* cols);

// Adjoint: accumulates `cols` back into `image` (image must be
// zero-initialized by the caller, or hold what the adds should land
// on). Each K row adds its in-bounds run (tap_range) per output row,
// so an image element takes its adds in K-row order at every SIMD
// level.
void col2im(const ConvGeometry& g, const float* cols, float* image);

}  // namespace qnn
