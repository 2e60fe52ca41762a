#include "quant/int_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "fixed/fixed_arith.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/inner_product.h"
#include "quant/int_datapath.h"
#include "quant/qnetwork.h"
#include "util/check.h"

namespace qnn::quant {

Tensor RawTensor::decode() const {
  Tensor t(shape);
  for (std::int64_t i = 0; i < count(); ++i)
    t[i] = static_cast<float>(
        format.from_raw(raw[static_cast<std::size_t>(i)]));
  return t;
}

RawTensor encode_tensor(const Tensor& t, const FixedPointFormat& format) {
  RawTensor r;
  r.shape = t.shape();
  r.format = format;
  r.raw.resize(static_cast<std::size_t>(t.count()));
  for (std::int64_t i = 0; i < t.count(); ++i)
    r.raw[static_cast<std::size_t>(i)] = format.to_raw(t[i]);
  return r;
}

std::optional<IntStageKind> int_stage_kind(const nn::Layer& layer) {
  if (dynamic_cast<const nn::Conv2d*>(&layer)) return IntStageKind::kConv;
  if (dynamic_cast<const nn::InnerProduct*>(&layer)) return IntStageKind::kIp;
  if (dynamic_cast<const nn::Pool2d*>(&layer)) return IntStageKind::kPool;
  if (dynamic_cast<const nn::Relu*>(&layer)) return IntStageKind::kRelu;
  if (dynamic_cast<const nn::Sigmoid*>(&layer)) return IntStageKind::kSigmoid;
  if (dynamic_cast<const nn::Tanh*>(&layer)) return IntStageKind::kTanh;
  if (dynamic_cast<const nn::Dropout*>(&layer))
    return IntStageKind::kPassthrough;
  return std::nullopt;
}

Shape IntStage::out_shape(const Shape& s) const {
  switch (kind) {
    case IntStageKind::kConv: {
      auto extent = [&](std::int64_t d) {
        return (d + 2 * pad - kernel) / stride + 1;
      };
      return Shape{s.n(), outputs, extent(s.h()), extent(s.w())};
    }
    case IntStageKind::kIp:
      return Shape{s[0], outputs};
    case IntStageKind::kPool:
      return Shape{s.n(), s.c(),
                   nn::pool_out_extent(s.h(), kernel, stride, pad),
                   nn::pool_out_extent(s.w(), kernel, stride, pad)};
    default:
      return s;
  }
}

namespace {

// The calibrated format of a fixed-point quantizer.
const FixedPointFormat& fixed_format(const ValueQuantizer& q) {
  const auto* fq = dynamic_cast<const FixedQuantizer*>(&q);
  QNN_CHECK_MSG(fq != nullptr && fq->format().has_value(),
                "integer lowering requires calibrated fixed-point formats "
                "(a calibrated non-float config)");
  return *fq->format();
}

inline std::uint32_t float_bits(float x) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// A nonzero weight on the pow2 grid is a normal ±2^e: an all-zero
// mantissa and e in the exponent field. Returns nonzero for a nonzero
// magnitude that is anything else (subnormal, Inf, NaN, not a power of
// two), zero for +-0 and the grid.
inline std::uint32_t off_pow2_grid(std::uint32_t mag) {
  const std::uint32_t field = mag >> 23;
  return (mag & 0x7FFFFFu) | (mag != 0 && field - 1u >= 0xFEu ? 1u : 0u);
}

// The codes of v[0, n) read off the bits, and whether any value is off
// the grid. Two branch-free passes, one store width each: a loop that
// stores the int32 words and the int8 signs together does not
// vectorize.
bool encode_pow2_grid(const float* __restrict v, std::int64_t n,
                      std::int32_t* __restrict words,
                      std::int8_t* __restrict sign) {
  std::uint32_t off = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t mag = float_bits(v[i]) & 0x7FFFFFFFu;
    words[i] = mag != 0 ? static_cast<std::int32_t>(mag >> 23) - 127 : 0;
    off |= off_pow2_grid(mag);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t bits = float_bits(v[i]);
    sign[i] = static_cast<std::int8_t>(
        (bits & 0x7FFFFFFFu) != 0 ? 1 - 2 * static_cast<int>(bits >> 31) : 0);
  }
  return off != 0;
}

// Encodes the live (quantized) values of a weight tensor for `kind`'s
// weight block. Pow2 and binary read their codes off the values, which
// already sit on the quantizer's grid. The loops run over raw pointers:
// an int8 sign store may alias anything, so a loop through
// Tensor::operator[] reloads the tensor after every store.
IntWeights encode_weights(PrecisionKind kind, const Tensor& w,
                          const ValueQuantizer& q) {
  IntWeights out;
  const std::int64_t n = w.count();
  const std::size_t count = static_cast<std::size_t>(n);
  const float* v = w.data();
  switch (kind) {
    case PrecisionKind::kFixed:
      out.code = WeightCode::kFixed;
      out.format = fixed_format(q);
      out.words.resize(count);
      encode_words(active_simd_level(), v, n, out.format, out.words.data());
      break;
    case PrecisionKind::kPow2: {
      out.code = WeightCode::kPow2;
      out.words.resize(count);
      out.sign.resize(count);
      std::int32_t* words = out.words.data();
      std::int8_t* sign = out.sign.data();
      const bool other = encode_pow2_grid(v, n, words, sign);
      for (std::int64_t i = 0; other && i < n; ++i) {
        if (off_pow2_grid(float_bits(v[i]) & 0x7FFFFFFFu) == 0) continue;
        sign[i] = v[i] > 0 ? 1 : -1;
        words[i] = static_cast<int>(
            std::lround(std::log2(std::fabs(static_cast<double>(v[i])))));
      }
      int min_exp = 0;
      for (std::int64_t i = 0; i < n; ++i) min_exp = std::min(min_exp, words[i]);
      out.headroom = -min_exp;
      break;
    }
    case PrecisionKind::kBinary: {
      out.code = WeightCode::kBinary;
      out.sign.resize(count);
      std::int8_t* sign = out.sign.data();
      for (std::int64_t i = 0; i < n; ++i) sign[i] = v[i] >= 0 ? 1 : -1;
      out.scale = n > 0 ? std::fabs(static_cast<double>(v[0])) : 1.0;
      break;
    }
    case PrecisionKind::kFloat:
      QNN_CHECK_MSG(false, "float has no integer realization");
  }
  return out;
}

int acc_frac_for(const IntWeights& w, int in_frac) {
  switch (w.code) {
    case WeightCode::kFixed: return in_frac + w.format.frac_bits();
    case WeightCode::kPow2: return in_frac + w.headroom;
    case WeightCode::kBinary: return in_frac;
  }
  return in_frac;
}

}  // namespace

IntPlan lower_int_plan(nn::Network& net, const QuantizedNetwork& qnet) {
  QNN_CHECK_MSG(!qnet.config().is_float(),
                "the float config has no integer realization");
  QNN_CHECK_MSG(qnet.calibrated(), "calibrate the QuantizedNetwork first");
  IntPlan plan;
  plan.input = fixed_format(qnet.data_quantizer(0));
  std::size_t param_index = 0;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    nn::Layer& layer = net.layer(li);
    const std::optional<IntStageKind> kind = int_stage_kind(layer);
    QNN_CHECK_MSG(kind.has_value(),
                  "layer kind without an integer stage: " << layer.kind());
    IntStage st;
    st.kind = *kind;
    st.layer = li;
    st.in = fixed_format(qnet.data_quantizer(li));
    st.out = fixed_format(qnet.data_quantizer(li + 1));
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      st.in_c = conv->in_channels();
      st.kernel = conv->spec().kernel;
      st.stride = conv->spec().stride;
      st.pad = conv->spec().pad;
      st.outputs = conv->spec().out_channels;
      st.k = st.in_c * st.kernel * st.kernel;
    } else if (auto* ip = dynamic_cast<nn::InnerProduct*>(&layer)) {
      st.outputs = ip->out_features();
      st.k = ip->in_features();
    } else if (auto* pool = dynamic_cast<nn::Pool2d*>(&layer)) {
      st.pool_mode = pool->spec().mode;
      st.kernel = pool->spec().kernel;
      st.stride = pool->spec().stride;
      st.pad = pool->spec().pad;
    }
    const auto params = layer.params();
    if (st.has_weights()) {
      st.weights = encode_weights(qnet.config().kind, params[0]->value,
                                  qnet.weight_quantizer(param_index));
      st.acc_frac = acc_frac_for(st.weights, st.in.frac_bits());
      if (params.size() > 1 && !params[1]->value.empty()) {
        const Tensor& b = params[1]->value;
        const FixedPointFormat& bf =
            fixed_format(qnet.weight_quantizer(param_index + 1));
        st.bias.resize(static_cast<std::size_t>(b.count()));
        for (std::int64_t o = 0; o < b.count(); ++o)
          st.bias[static_cast<std::size_t>(o)] =
              shift_raw_rounded(bf.to_raw(static_cast<double>(b[o])),
                                bf.frac_bits(), st.acc_frac);
      }
    }
    param_index += params.size();
    plan.stages.push_back(std::move(st));
  }
  return plan;
}

}  // namespace qnn::quant
