// Element-wise nonlinearities. The paper's accelerator implements the
// nonlinearity as the third NFU pipeline stage.
#pragma once

#include "nn/layer.h"

namespace qnn::nn {

class Relu final : public Layer {
 public:
  const char* kind() const override { return "relu"; }
  Shape output_shape(const Shape& in) const override { return in; }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& in, const Tensor& grad_out) override;
  LayerPtr clone() const override { return std::make_unique<Relu>(*this); }
};

// Logistic sigmoid — the nonlinearity DianNao's NFU-3 stage implements
// as a piecewise-linear approximation.
class Sigmoid final : public Layer {
 public:
  const char* kind() const override { return "sigmoid"; }
  Shape output_shape(const Shape& in) const override { return in; }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& in, const Tensor& grad_out) override;
  LayerPtr clone() const override { return std::make_unique<Sigmoid>(*this); }
};

// Hyperbolic tangent (Sermanet's original SVHN ConvNet used tanh).
class Tanh final : public Layer {
 public:
  const char* kind() const override { return "tanh"; }
  Shape output_shape(const Shape& in) const override { return in; }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& in, const Tensor& grad_out) override;
  LayerPtr clone() const override { return std::make_unique<Tanh>(*this); }
};

// Inverted dropout: scales kept activations by 1/(1-p) at train time so
// inference is a no-op. Training mode is on from construction;
// set_training_mode(false) (nn::evaluate does) turns it off.
class Dropout final : public Layer {
 public:
  explicit Dropout(double drop_probability, std::uint64_t seed = 17);

  const char* kind() const override { return "dropout"; }
  Shape output_shape(const Shape& in) const override { return in; }
  Tensor forward(const Tensor& in) override;
  Tensor backward(const Tensor& in, const Tensor& grad_out) override;
  LayerPtr clone() const override { return std::make_unique<Dropout>(*this); }

  void set_training_mode(bool training) override { training_ = training; }

 private:
  double p_;
  bool training_ = true;
  Rng rng_;
  // 0 or 1/(1-p) per element: the RNG draws of the last training
  // forward, which backward must reuse (not recomputable from `in`).
  std::vector<float> mask_;
};

}  // namespace qnn::nn
