#include "nn/inner_product.h"

#include <cmath>

#include "obs/trace.h"
#include "protect/abft.h"
#include "tensor/gemm.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::nn {

InnerProduct::InnerProduct(std::int64_t in_features,
                           std::int64_t out_features, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("w", Shape{out_features, in_features}),
      bias_(bias ? Param("b", Shape{out_features}) : Param()) {
  QNN_CHECK(in_features > 0 && out_features > 0);
}

std::int64_t InnerProduct::flat_features(const Shape& in) const {
  QNN_CHECK(in.rank() >= 2);
  const std::int64_t f = in.count_from(1);
  QNN_CHECK_MSG(f == in_features_, "inner_product input "
                                       << in.to_string() << " flattens to "
                                       << f << ", expected "
                                       << in_features_);
  return f;
}

Shape InnerProduct::output_shape(const Shape& in) const {
  flat_features(in);
  return Shape{in[0], out_features_};
}

Tensor InnerProduct::forward(const Tensor& in) {
  QNN_SPAN_N("inner_product_forward", "layer", in.shape()[0]);
  const std::int64_t n = in.shape()[0];
  const std::int64_t f = flat_features(in.shape());

  Tensor out(Shape{n, out_features_});
  // out[N, Out] = x[N, In] * W^T (W stored [Out, In]), x read as its
  // flattened [N, In] rows, bias folded into the gemm epilogue.
  // Guarded: ABFT-verified when a protect::AbftScope is active, the
  // plain kernel otherwise. This is the canonical tall-K K-sharded shape
  // (M = batch, K = in_features; tensor/gemm.h).
  protect::gemm_guarded(
      {.m = n, .n = out_features_, .k = f, .a = in.data(),
       .b = weight_.value.data(), .trans_b = true, .c = out.data(),
       .bias = bias_.value.empty() ? nullptr : bias_.value.data(),
       .bias_axis = BiasAxis::kCol});
  return out;
}

void InnerProduct::backward_params(const Tensor& in,
                                   const Tensor& grad_out) {
  const std::int64_t n = in.shape()[0];
  flat_features(in.shape());
  QNN_CHECK(grad_out.shape() == Shape({n, out_features_}));

  // dW[Out, In] += gO^T[Out, N] * x[N, In]; the product lands in a
  // buffer of its own, which is then added to the gradient.
  Tensor dw(weight_.grad.shape());
  gemm({.m = out_features_, .n = in_features_, .k = n,
        .a = grad_out.data(), .trans_a = true, .b = in.data(),
        .c = dw.data()});
  weight_.grad.add(dw);

  if (!bias_.value.empty()) {
    // Each output feature accumulates its own double partial over the
    // batch — disjoint writes, order-independent of the sharding. A
    // feature costs one strided pass over the batch.
    parallel_for_shards(
        out_features_, kReductionShards, shard_grain(2 * n),
        [&](std::size_t, std::int64_t begin, std::int64_t end) {
          for (std::int64_t o = begin; o < end; ++o) {
            double acc = 0.0;
            for (std::int64_t s = 0; s < n; ++s) acc += grad_out.at2(s, o);
            bias_.grad[o] += static_cast<float>(acc);
          }
        });
  }
}

Tensor InnerProduct::backward(const Tensor& in, const Tensor& grad_out) {
  backward_params(in, grad_out);
  // dX[N, In] = gO[N, Out] * W[Out, In], in the input's shape
  Tensor grad_in(in.shape());
  gemm({.m = in.shape()[0], .n = in_features_, .k = out_features_,
        .a = grad_out.data(), .b = weight_.value.data(),
        .c = grad_in.data()});
  return grad_in;
}

std::vector<Param*> InnerProduct::params() {
  std::vector<Param*> p{&weight_};
  if (!bias_.value.empty()) p.push_back(&bias_);
  return p;
}

LayerDesc InnerProduct::describe(const Shape& in) const {
  LayerDesc d = Layer::describe(in);
  d.fan_in = in_features_;
  d.macs = in_features_ * out_features_;
  d.weights = weight_.count();
  d.biases = bias_.value.empty() ? 0 : bias_.value.count();
  return d;
}

void InnerProduct::init_weights(Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(in_features_));
  weight_.value.fill_uniform(rng, static_cast<float>(-bound),
                             static_cast<float>(bound));
  if (!bias_.value.empty()) bias_.value.zero();
}

}  // namespace qnn::nn
