// The float data path around the GEMM (DESIGN.md §9) checked at every
// SIMD level this CPU supports: im2col's run copies (scalar) and masked
// row moves (vector) against a naive per-element oracle, and max
// pooling's vector spans against a naive window scan — values and
// argmax, through ties, NaN and ±inf windows and ceil-mode edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "nn/pool.h"
#include "tensor/im2col.h"
#include "tensor/microkernel.h"
#include "test_env.h"
#include "testing/gemm_forms.h"

namespace qnn {
namespace {

using testing::bytes_equal;

// ---------------------------------------------------------------------
// im2col.

// One tap at a time, with the bounds test on every element.
std::vector<float> naive_im2col(const ConvGeometry& g,
                                const std::vector<float>& image) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * oh * ow));
  std::size_t e = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw)
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x, ++e) {
            const std::int64_t iy = y * g.stride_h - g.pad_h + kh;
            const std::int64_t ix = x * g.stride_w - g.pad_w + kw;
            const bool in = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            cols[e] = in ? image[static_cast<std::size_t>(
                               (c * g.in_h + iy) * g.in_w + ix)]
                         : 0.0f;
          }
  return cols;
}

TEST(FloatDatapath, Im2colMatchesNaiveOracleAtEveryLevel) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  int cases = 0;
  for (std::int64_t kernel : {1, 3, 5, 7}) {
    for (std::int64_t stride : {1, 2, 3}) {
      for (std::int64_t pad : {0, 1, 2, 3}) {
        // Widths giving ow < 8, ow = 8 and ow past one vector.
        for (std::int64_t w : {3, 7, 10, 19}) {
          ConvGeometry g;
          g.in_c = 2;
          g.in_h = w + 1;
          g.in_w = w;
          g.kernel_h = g.kernel_w = kernel;
          g.stride_h = g.stride_w = stride;
          g.pad_h = g.pad_w = pad;
          if (g.in_w + 2 * pad < kernel || g.in_h + 2 * pad < kernel) continue;
          std::vector<float> image(
              static_cast<std::size_t>(g.in_c * g.in_h * g.in_w));
          for (float& v : image) v = dist(rng);
          const std::vector<float> want = naive_im2col(g, image);
          for (SimdLevel level : supported_levels()) {
            ScopedSimdLevel force(level);
            // Stale bytes the copy must overwrite everywhere.
            std::vector<float> got(want.size(), 7.0f);
            im2col(g, image.data(), got.data());
            ASSERT_TRUE(bytes_equal(want, got))
                << simd_level_name(level) << " k=" << kernel
                << " s=" << stride << " pad=" << pad << " w=" << w
                << " ow=" << g.out_w();
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 150);
}

// ---------------------------------------------------------------------
// Max pooling.

struct PoolResult {
  std::vector<float> out;
  std::vector<std::int64_t> argmax;
};

// Each window in (row, column) order from its first cell, replaced only
// on a strict `>` — the contract every level must reproduce.
PoolResult naive_max_pool(const nn::PoolSpec& spec, const Shape& s,
                          const std::vector<float>& in) {
  const std::int64_t oh =
      nn::pool_out_extent(s.h(), spec.kernel, spec.stride, spec.pad);
  const std::int64_t ow =
      nn::pool_out_extent(s.w(), spec.kernel, spec.stride, spec.pad);
  PoolResult r;
  for (std::int64_t p = 0; p < s.n() * s.c(); ++p)
    for (std::int64_t y = 0; y < oh; ++y)
      for (std::int64_t x = 0; x < ow; ++x) {
        const std::int64_t y0 =
            std::max<std::int64_t>(0, y * spec.stride - spec.pad);
        const std::int64_t x0 =
            std::max<std::int64_t>(0, x * spec.stride - spec.pad);
        const std::int64_t y1 =
            std::min(s.h(), y * spec.stride - spec.pad + spec.kernel);
        const std::int64_t x1 =
            std::min(s.w(), x * spec.stride - spec.pad + spec.kernel);
        std::int64_t best = (p * s.h() + y0) * s.w() + x0;
        for (std::int64_t yy = y0; yy < y1; ++yy)
          for (std::int64_t xx = x0; xx < x1; ++xx) {
            const std::int64_t cell = (p * s.h() + yy) * s.w() + xx;
            if (in[static_cast<std::size_t>(cell)] >
                in[static_cast<std::size_t>(best)])
              best = cell;
          }
        r.out.push_back(in[static_cast<std::size_t>(best)]);
        r.argmax.push_back(best);
      }
  return r;
}

// Few distinct values (ties in most windows), with NaN, +inf and -inf
// cells sprinkled in, and whole NaN / -inf stretches.
std::vector<float> tricky_plane_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> level(-2, 2);
  std::uniform_int_distribution<int> special(0, 29);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v(n);
  for (float& x : v) {
    switch (special(rng)) {
      case 0: x = nan; break;
      case 1: x = inf; break;
      case 2: x = -inf; break;
      case 3: x = -0.0f; break;
      default: x = 0.5f * static_cast<float>(level(rng));
    }
  }
  for (std::size_t i = 40; i < std::min<std::size_t>(n, 60); ++i) v[i] = nan;
  for (std::size_t i = 90; i < std::min<std::size_t>(n, 110); ++i) v[i] = -inf;
  return v;
}

struct PoolCase {
  std::int64_t kernel, stride, pad, h, w;
};

TEST(FloatDatapath, MaxPoolMatchesNaiveScanAtEveryLevel) {
  const PoolCase cases[] = {
      {2, 2, 0, 24, 24},  // LeNet pool1: vector spans with an overlap
      {2, 2, 0, 8, 8},    // LeNet pool2: too narrow for a span
      {3, 2, 0, 32, 32},  // ALEX pool1: ceil-mode clipped last column
      {3, 2, 1, 32, 32},  // pad: clipped first and last windows
      {3, 2, 0, 9, 35},   // odd width, clipped last window
      {3, 1, 1, 7, 21},   // stride 1 with pad
      {2, 1, 0, 5, 40},   // stride 1, many spans
      {2, 1, 1, 6, 17},   // stride 1, pad 1
      {3, 3, 1, 10, 50},  // stride 3: scalar at every level
      {2, 2, 1, 11, 19},  // pad with an even kernel
      {1, 2, 0, 4, 4},    // kernel < stride, no pad
      {1, 2, 0, 6, 37},   // kernel < stride on a span
      {3, 2, 2, 12, 40},  // pad 2 of a 3x3 window
  };
  for (const PoolCase& pc : cases) {
    const nn::PoolSpec spec{nn::PoolMode::kMax, pc.kernel, pc.stride, pc.pad};
    const Shape s{2, 3, pc.h, pc.w};
    const std::vector<float> in = tricky_plane_values(
        static_cast<std::size_t>(s.count()),
        static_cast<std::uint64_t>(pc.h * 131 + pc.w));
    const PoolResult want = naive_max_pool(spec, s, in);
    // Distinct nonzero gradients: backward scatters them to the argmax
    // cells, in output order like the oracle's scatter below.
    std::vector<float> g(want.out.size());
    for (std::size_t i = 0; i < g.size(); ++i)
      g[i] = 1.0f + static_cast<float>(i) / 64.0f;
    std::vector<float> want_grad(in.size(), 0.0f);
    for (std::size_t i = 0; i < g.size(); ++i)
      want_grad[static_cast<std::size_t>(want.argmax[i])] += g[i];

    for (SimdLevel level : supported_levels()) {
      SCOPED_TRACE(std::string(simd_level_name(level)) +
                   " k=" + std::to_string(pc.kernel) +
                   " s=" + std::to_string(pc.stride) +
                   " pad=" + std::to_string(pc.pad) + " " +
                   std::to_string(pc.h) + "x" + std::to_string(pc.w));
      ScopedSimdLevel force(level);
      nn::Pool2d pool(spec);
      const Tensor out = pool.forward(Tensor(s, in));
      ASSERT_EQ(out.count(), static_cast<std::int64_t>(want.out.size()));
      ASSERT_TRUE(bytes_equal(
          want.out, std::vector<float>(out.data(), out.data() + out.count())));
      const Tensor gin = pool.backward(Tensor(out.shape(), g));
      ASSERT_TRUE(bytes_equal(
          want_grad, std::vector<float>(gin.data(), gin.data() + gin.count())));
    }
  }
}

// The vector rectangle directly: values and argmax words of every
// interior output, full groups of 8 and the masked group after them,
// on a plane whose interior starts past an edge column and row.
TEST(FloatDatapath, MaxPoolRectArgmaxMatchesScan) {
  for (SimdLevel level : supported_levels()) {
    const F32VecOps* ops = f32_vec_ops(level);
    if (ops == nullptr) continue;
    for (std::int64_t stride : {1, 2}) {
      for (std::int64_t kernel : {1, 2, 3}) {
        for (std::int64_t w : {7, 45}) {
          const std::int64_t h = 6, pad = kernel > 1 ? 1 : 0;
          const std::vector<float> plane =
              tricky_plane_values(static_cast<std::size_t>(h * w), 77);
          const std::int64_t oh = nn::pool_out_extent(h, kernel, stride, pad);
          const std::int64_t ow = nn::pool_out_extent(w, kernel, stride, pad);
          // Interior: windows with i * stride - pad >= 0 and their end
          // inside the plane.
          const std::int64_t x0 = (pad + stride - 1) / stride, y0 = x0;
          const std::int64_t x1 = (w + pad - kernel) / stride + 1;
          const std::int64_t y1 = (h + pad - kernel) / stride + 1;
          ASSERT_LE(x1, ow);
          ASSERT_LE(y1, oh);
          std::vector<float> out(static_cast<std::size_t>(oh * ow), 9.0f);
          std::vector<std::int64_t> argmax(out.size(), -1);
          ops->pool_max({plane.data(), w, ow, kernel, stride, pad, y0, y1, x0,
                         x1, 1000},
                        out.data(), argmax.data());
          for (std::int64_t y = 0; y < oh; ++y)
            for (std::int64_t x = 0; x < ow; ++x) {
              const std::size_t e = static_cast<std::size_t>(y * ow + x);
              SCOPED_TRACE(std::string(simd_level_name(level)) +
                           " s=" + std::to_string(stride) +
                           " k=" + std::to_string(kernel) +
                           " w=" + std::to_string(w) + " y=" +
                           std::to_string(y) + " x=" + std::to_string(x));
              if (y < y0 || y >= y1 || x < x0 || x >= x1) {
                // Outside the rectangle: untouched.
                ASSERT_EQ(out[e], 9.0f);
                ASSERT_EQ(argmax[e], -1);
                continue;
              }
              const std::int64_t origin =
                  (y * stride - pad) * w + x * stride - pad;
              std::int64_t best = origin;
              for (std::int64_t dy = 0; dy < kernel; ++dy)
                for (std::int64_t dx = 0; dx < kernel; ++dx) {
                  const std::int64_t cell = origin + dy * w + dx;
                  if (plane[static_cast<std::size_t>(cell)] >
                      plane[static_cast<std::size_t>(best)])
                    best = cell;
                }
              const float want = plane[static_cast<std::size_t>(best)];
              ASSERT_EQ(std::memcmp(&want, &out[e], sizeof want), 0);
              ASSERT_EQ(argmax[e], 1000 + best);
            }
        }
      }
    }
  }
}

}  // namespace
}  // namespace qnn
