// 2-D convolution layer (cross-correlation, as in Caffe), lowered to
// GEMM via im2col.
#pragma once

#include "nn/layer.h"
#include "tensor/im2col.h"
#include "util/rng.h"

namespace qnn::nn {

struct ConvSpec {
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;      // square kernels, as in all paper nets
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  bool bias = true;
};

class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t in_channels, const ConvSpec& spec);

  const char* kind() const override { return "conv"; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& in, const Tensor& grad_out) override;
  void backward_params(const Tensor& in, const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  LayerDesc describe(const Shape& in) const override;
  LayerPtr clone() const override { return std::make_unique<Conv2d>(*this); }

  // He-uniform initialization (fan-in based).
  void init_weights(Rng& rng);

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const ConvSpec& spec() const { return spec_; }
  std::int64_t in_channels() const { return in_channels_; }

 private:
  ConvGeometry geometry(const Shape& in) const;
  // Accumulates dW and db and, when grad_in is not null, writes dX.
  void run_backward(const Tensor& in, const Tensor& grad_out,
                    Tensor* grad_in);

  std::int64_t in_channels_;
  ConvSpec spec_;
  Param weight_;  // (Cout, Cin, K, K)
  Param bias_;    // (Cout) — empty when spec.bias == false
};

}  // namespace qnn::nn
