// Fully-connected ("inner product", Caffe naming) layer.
// Accepts rank-4 inputs by flattening per sample.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace qnn::nn {

class InnerProduct final : public Layer {
 public:
  InnerProduct(std::int64_t in_features, std::int64_t out_features,
               bool bias = true);

  const char* kind() const override { return "inner_product"; }
  Shape output_shape(const Shape& in) const override;
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& in, const Tensor& grad_out) override;
  void backward_params(const Tensor& in, const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  LayerDesc describe(const Shape& in) const override;
  LayerPtr clone() const override {
    return std::make_unique<InnerProduct>(*this);
  }

  void init_weights(Rng& rng);

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

 private:
  std::int64_t flat_features(const Shape& in) const;

  std::int64_t in_features_;
  std::int64_t out_features_;
  Param weight_;  // (Out, In) row-major
  Param bias_;    // (Out)
};

}  // namespace qnn::nn
