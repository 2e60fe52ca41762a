#include "nn/activation.h"

#include <cmath>

#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::nn {
namespace {

// Elementwise map over a tensor, sharded with disjoint writes. The
// per-element work is a handful of ops, so the grain keeps small
// tensors (fc outputs, logits) in a single inline shard.
template <typename F>
void elementwise(Tensor& t, F&& fn) {
  parallel_for_shards(t.count(), kReductionShards, shard_grain(4),
                      [&](std::size_t, std::int64_t begin, std::int64_t end) {
                        for (std::int64_t i = begin; i < end; ++i) fn(i);
                      });
}

// Both sigmoid passes compute y through this one expression, so the
// backward's y is the forward's, byte for byte.
float sigmoid_of(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

Tensor Relu::forward(const Tensor& in) {
  QNN_SPAN("relu_forward", "layer");
  Tensor out = in;
  elementwise(out, [&](std::int64_t i) {
    if (out[i] < 0) out[i] = 0;
  });
  return out;
}

// The forward's output is <= 0 exactly where its input is (negatives
// become 0, zeros of either sign and NaN pass through), so the mask
// reads the input.
Tensor Relu::backward(const Tensor& in, const Tensor& grad_out) {
  QNN_CHECK(grad_out.shape() == in.shape());
  Tensor grad_in = grad_out;
  elementwise(grad_in, [&](std::int64_t i) {
    if (in[i] <= 0) grad_in[i] = 0;
  });
  return grad_in;
}

Tensor Sigmoid::forward(const Tensor& in) {
  QNN_SPAN("sigmoid_forward", "layer");
  Tensor out = in;
  elementwise(out, [&](std::int64_t i) { out[i] = sigmoid_of(out[i]); });
  return out;
}

Tensor Sigmoid::backward(const Tensor& in, const Tensor& grad_out) {
  QNN_CHECK(grad_out.shape() == in.shape());
  Tensor grad_in = grad_out;
  elementwise(grad_in, [&](std::int64_t i) {
    const float y = sigmoid_of(in[i]);
    grad_in[i] *= y * (1.0f - y);
  });
  return grad_in;
}

Tensor Tanh::forward(const Tensor& in) {
  QNN_SPAN("tanh_forward", "layer");
  Tensor out = in;
  elementwise(out, [&](std::int64_t i) { out[i] = std::tanh(out[i]); });
  return out;
}

Tensor Tanh::backward(const Tensor& in, const Tensor& grad_out) {
  QNN_CHECK(grad_out.shape() == in.shape());
  Tensor grad_in = grad_out;
  elementwise(grad_in, [&](std::int64_t i) {
    const float y = std::tanh(in[i]);
    grad_in[i] *= 1.0f - y * y;
  });
  return grad_in;
}

Dropout::Dropout(double drop_probability, std::uint64_t seed)
    : p_(drop_probability), rng_(seed) {
  QNN_CHECK_MSG(p_ >= 0.0 && p_ < 1.0,
                "drop probability " << p_ << " out of [0,1)");
}

Tensor Dropout::forward(const Tensor& in) {
  QNN_SPAN("dropout_forward", "layer");
  if (!training_ || p_ == 0.0) {
    mask_.clear();
    return in;
  }
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  mask_.resize(static_cast<std::size_t>(in.count()));
  Tensor out = in;
  // Intentionally serial: the mask consumes one sequential RNG stream,
  // and sharding it would make the draws depend on the thread count.
  for (std::int64_t i = 0; i < out.count(); ++i) {
    const float m = rng_.bernoulli(p_) ? 0.0f : keep_scale;
    mask_[static_cast<std::size_t>(i)] = m;
    out[i] *= m;
  }
  return out;
}

Tensor Dropout::backward(const Tensor&, const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;  // eval-mode / p == 0 forward
  QNN_CHECK(static_cast<std::size_t>(grad_out.count()) == mask_.size());
  Tensor grad_in = grad_out;
  elementwise(grad_in, [&](std::int64_t i) {
    grad_in[i] *= mask_[static_cast<std::size_t>(i)];
  });
  return grad_in;
}

}  // namespace qnn::nn
