#include "hw/nfu_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fixed/fixed_arith.h"
#include "fixed/plan_sigmoid.h"
#include "util/check.h"

namespace qnn::hw {
namespace {

using quant::IntStage;
using quant::IntStageKind;
using quant::RawTensor;
using quant::WeightCode;

std::int64_t saturate(std::int64_t raw, const FixedPointFormat& f) {
  return std::clamp(raw, f.raw_min(), f.raw_max());
}

// Moves a raw word from `from_frac` onto `f`'s grid.
std::int64_t requantize(std::int64_t raw, int from_frac,
                        const FixedPointFormat& f) {
  return saturate(shift_raw_rounded(raw, from_frac, f.frac_bits()), f);
}

RawTensor make_output(const Shape& shape, const FixedPointFormat& format) {
  RawTensor out;
  out.shape = shape;
  out.format = format;
  out.raw.assign(static_cast<std::size_t>(shape.count()), 0);
  return out;
}

// One weight-block product (paper Fig. 2): weight `i` times a data word.
std::int64_t product(const quant::IntWeights& w, std::size_t i,
                     std::int64_t data, const MultiplyFn& mul) {
  switch (w.code) {
    case WeightCode::kFixed:
      return mul(w.words[i], data);
    case WeightCode::kPow2: {
      if (w.sign[i] == 0) return 0;
      const int shift = w.headroom + w.words[i];
      QNN_DCHECK(shift >= 0 && shift < 62);
      const std::int64_t p = data << shift;
      return w.sign[i] > 0 ? p : -p;
    }
    case WeightCode::kBinary:
      return w.sign[i] > 0 ? data : -data;
  }
  return 0;
}

// Output `o`'s weighted sum plus its aligned bias, requantized onto the
// stage's output site.
std::int64_t requantize_sum(const IntStage& st, std::size_t o,
                            std::int64_t sum) {
  const std::int64_t bias = st.bias.empty() ? 0 : st.bias[o];
  if (st.weights.code == WeightCode::kBinary) {
    // The per-tensor scale multiplies the sign-mux sum, not the bias.
    const double value = (static_cast<double>(sum) * st.weights.scale +
                          static_cast<double>(bias)) *
                         std::ldexp(1.0, -st.acc_frac);
    return st.out.to_raw(value);
  }
  return requantize(sum + bias, st.acc_frac, st.out);
}

RawTensor run_conv(const IntStage& st, const RawTensor& in,
                   const MultiplyFn& mul) {
  const Shape& s = in.shape;
  QNN_CHECK(s.rank() == 4 && s.c() == st.in_c);
  RawTensor out = make_output(st.out_shape(s), st.out);
  const std::int64_t oh = out.shape.h(), ow = out.shape.w();
  const std::int64_t kernel = st.kernel;
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t oc = 0; oc < st.outputs; ++oc) {
      const std::size_t wbase = static_cast<std::size_t>(oc * st.k);
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          std::int64_t sum = 0;
          for (std::int64_t c = 0; c < st.in_c; ++c) {
            for (std::int64_t ky = 0; ky < kernel; ++ky) {
              const std::int64_t iy = y * st.stride - st.pad + ky;
              if (iy < 0 || iy >= s.h()) continue;
              for (std::int64_t kx = 0; kx < kernel; ++kx) {
                const std::int64_t ix = x * st.stride - st.pad + kx;
                if (ix < 0 || ix >= s.w()) continue;
                const std::int64_t draw = in.raw[static_cast<std::size_t>(
                    ((n * st.in_c + c) * s.h() + iy) * s.w() + ix)];
                sum += product(st.weights,
                               wbase + static_cast<std::size_t>(
                                           (c * kernel + ky) * kernel + kx),
                               draw, mul);
              }
            }
          }
          out.raw[static_cast<std::size_t>(
              ((n * st.outputs + oc) * oh + y) * ow + x)] =
              requantize_sum(st, static_cast<std::size_t>(oc), sum);
        }
      }
    }
  }
  return out;
}

// Inner products consume their input flattened per sample.
RawTensor run_ip(const IntStage& st, const RawTensor& in,
                 const MultiplyFn& mul) {
  QNN_CHECK(in.shape.count_from(1) == st.k);
  RawTensor out = make_output(st.out_shape(in.shape), st.out);
  for (std::int64_t s = 0; s < in.shape[0]; ++s) {
    const std::size_t ibase = static_cast<std::size_t>(s * st.k);
    for (std::int64_t o = 0; o < st.outputs; ++o) {
      const std::size_t wbase = static_cast<std::size_t>(o * st.k);
      std::int64_t sum = 0;
      for (std::int64_t i = 0; i < st.k; ++i)
        sum += product(st.weights, wbase + static_cast<std::size_t>(i),
                       in.raw[ibase + static_cast<std::size_t>(i)], mul);
      out.raw[static_cast<std::size_t>(s * st.outputs + o)] =
          requantize_sum(st, static_cast<std::size_t>(o), sum);
    }
  }
  return out;
}

RawTensor run_pool(const IntStage& st, const RawTensor& in) {
  const Shape& s = in.shape;
  RawTensor out = make_output(st.out_shape(s), st.out);
  const std::int64_t oh = out.shape.h(), ow = out.shape.w();
  const int in_frac = in.format.frac_bits();
  std::size_t oidx = 0;
  for (std::int64_t n = 0; n < s.n(); ++n) {
    for (std::int64_t c = 0; c < s.c(); ++c) {
      const std::size_t plane =
          static_cast<std::size_t>((n * s.c() + c) * s.h() * s.w());
      for (std::int64_t y = 0; y < oh; ++y) {
        const std::int64_t y0 =
            std::max<std::int64_t>(0, y * st.stride - st.pad);
        const std::int64_t y1 =
            std::min<std::int64_t>(s.h(), y * st.stride - st.pad + st.kernel);
        for (std::int64_t x = 0; x < ow; ++x, ++oidx) {
          const std::int64_t x0 =
              std::max<std::int64_t>(0, x * st.stride - st.pad);
          const std::int64_t x1 = std::min<std::int64_t>(
              s.w(), x * st.stride - st.pad + st.kernel);
          if (st.pool_mode == nn::PoolMode::kMax) {
            std::int64_t best = std::numeric_limits<std::int64_t>::min();
            for (std::int64_t yy = y0; yy < y1; ++yy)
              for (std::int64_t xx = x0; xx < x1; ++xx)
                best = std::max(best, in.raw[plane + static_cast<std::size_t>(
                                                         yy * s.w() + xx)]);
            // Max preserves the grid; only the format label changes.
            out.raw[oidx] = requantize(best, in_frac, st.out);
          } else {
            std::int64_t acc = 0;
            for (std::int64_t yy = y0; yy < y1; ++yy)
              for (std::int64_t xx = x0; xx < x1; ++xx)
                acc += in.raw[plane +
                              static_cast<std::size_t>(yy * s.w() + xx)];
            const double count = static_cast<double>((y1 - y0) * (x1 - x0));
            const double value =
                static_cast<double>(acc) * std::ldexp(1.0, -in_frac) / count;
            out.raw[oidx] = st.out.to_raw(value);
          }
        }
      }
    }
  }
  return out;
}

// ReLU, DianNao's stage-3 sigmoid/tanh block, and inference-time dropout
// (identity: inverted dropout trains with the scale folded in), each
// re-gridded to the site format. The PLAN piecewise-linear approximation
// (shift-and-add slopes) is evaluated on decoded values — functionally
// identical to the fixed-point shift network for the formats in play.
RawTensor run_pointwise(const IntStage& st, const RawTensor& in) {
  RawTensor out = make_output(in.shape, st.out);
  const int in_frac = in.format.frac_bits();
  for (std::size_t i = 0; i < in.raw.size(); ++i) {
    const std::int64_t v = in.raw[i];
    switch (st.kind) {
      case IntStageKind::kRelu:
        out.raw[i] = requantize(std::max<std::int64_t>(v, 0), in_frac, st.out);
        break;
      case IntStageKind::kSigmoid:
        out.raw[i] = st.out.to_raw(plan_sigmoid(in.format.from_raw(v)));
        break;
      case IntStageKind::kTanh:
        out.raw[i] = st.out.to_raw(plan_tanh(in.format.from_raw(v)));
        break;
      default:
        out.raw[i] = requantize(v, in_frac, st.out);
    }
  }
  return out;
}

RawTensor run_stage(const IntStage& stage, const RawTensor& in,
                    const MultiplyFn& mul) {
  switch (stage.kind) {
    case IntStageKind::kConv: return run_conv(stage, in, mul);
    case IntStageKind::kIp: return run_ip(stage, in, mul);
    case IntStageKind::kPool: return run_pool(stage, in);
    default: return run_pointwise(stage, in);
  }
}

}  // namespace

NfuSimulator::NfuSimulator(nn::Network& net,
                           const quant::QuantizedNetwork& qnet,
                           const Shape& input_shape,
                           const ApproxMultSpec& multiplier)
    : mul_(make_multiplier(multiplier)) {
  QNN_CHECK_MSG(!qnet.config().is_float(),
                "the float config has no integer realization");
  QNN_CHECK_MSG(multiplier.kind == ApproxMultKind::kExact ||
                    qnet.config().kind == quant::PrecisionKind::kFixed,
                "approximate multipliers apply to fixed-point configs");
  if (qnet.inference_frozen()) {
    plan_ = quant::lower_int_plan(net, qnet);
    return;
  }
  // A forward leaves the quantized values live in the network parameters.
  auto& mutable_qnet = const_cast<quant::QuantizedNetwork&>(qnet);
  std::vector<std::int64_t> dims = input_shape.dims();
  QNN_CHECK(!dims.empty());
  dims[0] = 1;
  (void)mutable_qnet.forward(Tensor(Shape{dims}));
  plan_ = quant::lower_int_plan(net, qnet);
  mutable_qnet.restore_masters();
}

RawTensor NfuSimulator::forward_raw(const Tensor& input) const {
  RawTensor x = quant::encode_tensor(input, plan_.input);
  for (const IntStage& stage : plan_.stages) x = run_stage(stage, x, mul_);
  return x;
}

Tensor NfuSimulator::forward(const Tensor& input) const {
  return forward_raw(input).decode();
}

}  // namespace qnn::hw
