// Layer interface.
//
// Layers hold their parameters and nothing a forward leaves behind (as
// in Caffe — the framework the paper's evaluation is built on — a layer
// is its weights plus a forward and a backward). A backward takes the
// forward's input back as an argument; nn::Network keeps that input on
// its tape while in training mode, so inference keeps no training state.
// Only Dropout's mask, the RNG draws of its last training forward, stays
// in a layer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/param.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace qnn::nn {

// Structural summary of one layer instance, consumed by the hardware
// model (src/hw) to schedule the layer onto the accelerator.
struct LayerDesc {
  std::string kind;   // "conv" | "pool_max" | "pool_avg" | "inner_product" | "relu" | ...
  std::string name;
  Shape in;           // per-batch input shape (N = 1 when describing)
  Shape out;
  std::int64_t macs = 0;     // multiply-accumulates per sample
  std::int64_t weights = 0;  // weight count (excluding bias)
  std::int64_t biases = 0;
  std::int64_t fan_in = 0;   // inputs per output neuron (conv: C*KH*KW)
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual const char* kind() const = 0;
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // Shape inference without running data.
  virtual Shape output_shape(const Shape& in) const = 0;

  virtual Tensor forward(const Tensor& in) = 0;

  // Consumes d(loss)/d(out) for the forward of `in`, accumulates
  // parameter gradients, and returns d(loss)/d(in). Whatever the
  // gradient needs of the forward (ReLU's mask, max pooling's argmax,
  // LRN's scale) is recomputed from `in`, with the forward's bytes.
  virtual Tensor backward(const Tensor& in, const Tensor& grad_out) = 0;

  // backward() for a network's first layer, whose d(loss)/d(in) no one
  // reads: accumulates the same parameter gradient bytes and returns
  // nothing. The default runs backward() and drops the result; layers
  // whose input gradient is a product of its own skip it.
  virtual void backward_params(const Tensor& in, const Tensor& grad_out) {
    (void)backward(in, grad_out);
  }

  virtual std::vector<Param*> params() { return {}; }

  // Deep copy of this layer (parameters and gradients). Used to build
  // per-thread network replicas for parallel fault trials.
  // Layers that cannot be copied may return nullptr; Network::clone
  // treats that as a hard error.
  virtual std::unique_ptr<Layer> clone() const { return nullptr; }

  // Train/eval mode switch (only stochastic layers such as Dropout
  // care). nn::train enables it; nn::evaluate disables it.
  virtual void set_training_mode(bool) {}

  virtual LayerDesc describe(const Shape& in) const;

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace qnn::nn
