#include "nn/pool.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/trace.h"
#include "tensor/im2col.h"
#include "tensor/microkernel.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::nn {

Pool2d::Pool2d(const PoolSpec& spec) : spec_(spec) {
  QNN_CHECK(spec.kernel > 0 && spec.stride > 0 && spec.pad >= 0);
  QNN_CHECK_MSG(spec.pad < spec.kernel, "pool pad must be < kernel");
}

std::int64_t pool_out_extent(std::int64_t in, std::int64_t kernel,
                             std::int64_t stride, std::int64_t pad) {
  std::int64_t out = (in + 2 * pad - kernel + stride - 1) / stride + 1;
  if ((out - 1) * stride >= in + pad) --out;
  return out;
}

Shape Pool2d::output_shape(const Shape& in) const {
  QNN_CHECK(in.rank() == 4);
  return Shape{in.n(), in.c(),
               pool_out_extent(in.h(), spec_.kernel, spec_.stride, spec_.pad),
               pool_out_extent(in.w(), spec_.kernel, spec_.stride, spec_.pad)};
}

Tensor Pool2d::forward(const Tensor& in) {
  QNN_SPAN("pool_forward", "layer");
  Tensor out(output_shape(in.shape()));
  pool(in, out, nullptr);
  return out;
}

void Pool2d::pool(const Tensor& in, Tensor& out,
                  std::int64_t* argmax) const {
  const Shape& s = in.shape();
  const Shape& os = out.shape();
  const bool is_max = spec_.mode == PoolMode::kMax;

  const std::int64_t ih = s.h(), iw = s.w(), oh = os.h(), ow = os.w();
  const std::int64_t planes = s.n() * s.c();
  // Max pool's interior outputs run as one vector rectangle per plane
  // (stride 1 or 2, in-plane offsets within int32); the clipped edge
  // windows and every other shape take the scalar scan.
  const TapRange ys =
      tap_range(oh, ih - spec_.kernel + 1, spec_.stride, -spec_.pad);
  const TapRange xs =
      tap_range(ow, iw - spec_.kernel + 1, spec_.stride, -spec_.pad);
  const F32VecOps* vec =
      is_max && spec_.stride <= 2 && xs.hi > xs.lo && ys.hi > ys.lo &&
              ih * iw <= std::numeric_limits<std::int32_t>::max()
          ? f32_vec_ops(active_simd_level())
          : nullptr;
  // Every (sample, channel) plane reads and writes disjoint regions, so
  // the plane loop shards freely without changing any result. A plane
  // costs one window scan per output cell.
  const std::int64_t plane_cost =
      oh * ow * spec_.kernel * spec_.kernel;
  parallel_for_shards(planes, kReductionShards, shard_grain(plane_cost),
                      [&](std::size_t, std::int64_t begin,
                          std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      const float* plane = in.data() + p * ih * iw;
      const std::int64_t plane_base = p * ih * iw;
      if (vec != nullptr)
        vec->pool_max({plane, iw, ow, spec_.kernel, spec_.stride, spec_.pad,
                       ys.lo, ys.hi, xs.lo, xs.hi, plane_base},
                      out.data() + p * oh * ow,
                      argmax != nullptr ? argmax + p * oh * ow : nullptr);
      for (std::int64_t y = 0; y < oh; ++y) {
        const std::int64_t row = p * oh * ow + y * ow;
        float* out_row = out.data() + row;
        const std::int64_t y0 = std::max<std::int64_t>(
            0, y * spec_.stride - spec_.pad);
        const std::int64_t y1 = std::min<std::int64_t>(
            ih, y * spec_.stride - spec_.pad + spec_.kernel);
        const auto scan = [&](std::int64_t xb, std::int64_t xe) {
          for (std::int64_t x = xb; x < xe; ++x) {
            const std::int64_t x0 = std::max<std::int64_t>(
                0, x * spec_.stride - spec_.pad);
            const std::int64_t x1 = std::min<std::int64_t>(
                iw, x * spec_.stride - spec_.pad + spec_.kernel);
            if (is_max) {
              // Seed with the first in-window cell so the argmax is
              // valid even when the whole window is NaN (e.g. a
              // diverged run).
              float best = plane[y0 * iw + x0];
              std::int64_t best_idx = plane_base + y0 * iw + x0;
              for (std::int64_t yy = y0; yy < y1; ++yy)
                for (std::int64_t xx = x0; xx < x1; ++xx) {
                  const float v = plane[yy * iw + xx];
                  if (v > best) {
                    best = v;
                    best_idx = plane_base + yy * iw + xx;
                  }
                }
              out_row[x] = best;
              if (argmax != nullptr) argmax[row + x] = best_idx;
            } else {
              double acc = 0.0;
              for (std::int64_t yy = y0; yy < y1; ++yy)
                for (std::int64_t xx = x0; xx < x1; ++xx)
                  acc += plane[yy * iw + xx];
              const std::int64_t count = (y1 - y0) * (x1 - x0);
              out_row[x] =
                  static_cast<float>(acc / static_cast<double>(count));
            }
          }
        };
        if (vec != nullptr && y >= ys.lo && y < ys.hi) {
          scan(0, xs.lo);
          scan(xs.hi, ow);
        } else {
          scan(0, ow);
        }
      }
    }
  });
}

Tensor Pool2d::backward(const Tensor& in, const Tensor& grad_out) {
  const Shape& s = in.shape();
  const Shape os = output_shape(s);
  QNN_CHECK(grad_out.shape() == os);
  Tensor grad_in(s);

  const std::int64_t ih = s.h(), iw = s.w(), oh = os.h(), ow = os.w();
  const std::int64_t planes = s.n() * s.c();

  if (spec_.mode == PoolMode::kMax) {
    // The forward's scan again, this time keeping each output's argmax.
    // argmax indices stay inside their own plane, so plane sharding
    // keeps the scatter writes disjoint.
    Tensor out(os);
    std::vector<std::int64_t> argmax(static_cast<std::size_t>(os.count()));
    pool(in, out, argmax.data());
    parallel_for_shards(
        planes, kReductionShards, shard_grain(2 * oh * ow),
        [&](std::size_t, std::int64_t begin, std::int64_t end) {
          for (std::int64_t i = begin * oh * ow; i < end * oh * ow; ++i)
            grad_in[argmax[static_cast<std::size_t>(i)]] += grad_out[i];
        });
    return grad_in;
  }

  parallel_for_shards(planes, kReductionShards,
                      shard_grain(oh * ow * spec_.kernel * spec_.kernel),
                      [&](std::size_t, std::int64_t begin,
                          std::int64_t end) {
    for (std::int64_t p = begin; p < end; ++p) {
      float* plane = grad_in.data() + p * ih * iw;
      std::int64_t oidx = p * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        const std::int64_t y0 =
            std::max<std::int64_t>(0, y * spec_.stride - spec_.pad);
        const std::int64_t y1 = std::min<std::int64_t>(
            ih, y * spec_.stride - spec_.pad + spec_.kernel);
        for (std::int64_t x = 0; x < ow; ++x, ++oidx) {
          const std::int64_t x0 =
              std::max<std::int64_t>(0, x * spec_.stride - spec_.pad);
          const std::int64_t x1 = std::min<std::int64_t>(
              iw, x * spec_.stride - spec_.pad + spec_.kernel);
          const float share =
              grad_out[oidx] /
              static_cast<float>((y1 - y0) * (x1 - x0));
          for (std::int64_t yy = y0; yy < y1; ++yy)
            for (std::int64_t xx = x0; xx < x1; ++xx)
              plane[yy * iw + xx] += share;
        }
      }
    }
  });
  return grad_in;
}

LayerDesc Pool2d::describe(const Shape& in) const {
  LayerDesc d = Layer::describe(in);
  // Pooling does comparisons/adds, not MACs; the accelerator model
  // charges these to the (cheap) nonlinearity stage via out-elements.
  d.fan_in = spec_.kernel * spec_.kernel;
  return d;
}

}  // namespace qnn::nn
