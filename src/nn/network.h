// Sequential network container and the Model interface the trainer
// drives. quant::QuantizedNetwork implements the same interface around a
// Network, injecting weight/activation quantization.
//
// The Network keeps the backward tape: in training mode (the default,
// as for Dropout) each forward moves every layer's input onto the tape,
// and backward hands it back to the layer. An eval-mode forward clears
// the tape, so inference, calibration and clones carry none.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace qnn::nn {

// Abstraction the training/eval loops operate on.
class Model {
 public:
  virtual ~Model() = default;

  virtual Tensor forward(const Tensor& input) = 0;
  // Consumes d(loss)/d(output); parameter gradients accumulate into the
  // Params returned by trainable_params().
  virtual void backward(const Tensor& grad_output) = 0;
  // Parameters the optimizer should update (for QAT these are the
  // full-precision master weights).
  virtual std::vector<Param*> trainable_params() = 0;
  virtual std::string name() const = 0;
  // Train/eval switch for stochastic layers (Dropout); called by the
  // training and evaluation loops.
  virtual void set_training_mode(bool) {}
};

class Network final : public Model {
 public:
  explicit Network(std::string name = "net") : name_(std::move(name)) {}

  // Appends a layer; returns a typed reference for further configuration.
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    ref.set_name(name_ + "/" + layer->kind() + std::to_string(layers_.size()));
    layers_.push_back(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& input) override;
  // Runs layer i on x alone; in training mode x goes on the tape as the
  // layer's backward input. forward() is forward_layer over every layer.
  Tensor forward_layer(std::size_t i, Tensor x);
  // Layers last to first, each given its taped input; the first layer
  // runs backward_params, since no one reads the input gradient.
  // Throws unless a training-mode forward filled the tape.
  void backward(const Tensor& grad_output) override;
  std::vector<Param*> trainable_params() override;
  std::string name() const override { return name_; }
  void set_training_mode(bool training) override;

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  // He-uniform init of every parameterized layer.
  void init_weights(Rng& rng);

  // Structural description for the hardware model; `input` is the shape
  // of one sample batch (N is ignored, treated as 1).
  std::vector<LayerDesc> describe(const Shape& input) const;

  // Total parameter count (weights + biases).
  std::int64_t num_params() const;

  // Deep copy of all parameter values from another structurally
  // identical network.
  void copy_params_from(const Network& other);

  // Deep copy of the layers, their parameters and the training mode,
  // without the tape; fails if any layer does not implement clone().
  // Used to build per-thread replicas for parallel fault trials.
  Network clone() const;

 private:
  std::string name_;
  std::vector<LayerPtr> layers_;
  bool training_ = true;
  std::vector<Tensor> tape_;  // layer i's forward input, training mode only
};

}  // namespace qnn::nn
