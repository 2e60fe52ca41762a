#include "nn/network.h"

#include "nn/conv.h"
#include "nn/inner_product.h"
#include "obs/trace.h"
#include "util/check.h"

namespace qnn::nn {

Tensor Network::forward(const Tensor& input) {
  QNN_SPAN_N("net_forward", "nn", input.shape()[0]);
  Tensor x = input;
  for (std::size_t i = 0; i < layers_.size(); ++i)
    x = forward_layer(i, std::move(x));
  return x;
}

Tensor Network::forward_layer(std::size_t i, Tensor x) {
  Tensor y = layers_.at(i)->forward(x);
  if (training_) {
    tape_.resize(layers_.size());
    tape_[i] = std::move(x);
  } else {
    tape_.clear();
  }
  return y;
}

void Network::backward(const Tensor& grad_output) {
  if (layers_.empty()) return;
  QNN_CHECK_MSG(tape_.size() == layers_.size(), "backward before forward");
  Tensor g = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i)
    g = layers_[i]->backward(tape_[i], g);
  layers_.front()->backward_params(tape_.front(), g);
}

void Network::set_training_mode(bool training) {
  training_ = training;
  for (auto& layer : layers_) layer->set_training_mode(training);
}

std::vector<Param*> Network::trainable_params() {
  std::vector<Param*> all;
  for (auto& layer : layers_)
    for (Param* p : layer->params()) all.push_back(p);
  return all;
}

void Network::init_weights(Rng& rng) {
  for (auto& layer : layers_) {
    if (auto* conv = dynamic_cast<Conv2d*>(layer.get()))
      conv->init_weights(rng);
    else if (auto* ip = dynamic_cast<InnerProduct*>(layer.get()))
      ip->init_weights(rng);
  }
}

std::vector<LayerDesc> Network::describe(const Shape& input) const {
  QNN_CHECK(input.rank() >= 2);
  // Normalize to batch size 1.
  std::vector<std::int64_t> dims = input.dims();
  dims[0] = 1;
  Shape shape{dims};
  std::vector<LayerDesc> descs;
  descs.reserve(layers_.size());
  for (const auto& layer : layers_) {
    descs.push_back(layer->describe(shape));
    shape = descs.back().out;
  }
  return descs;
}

std::int64_t Network::num_params() const {
  std::int64_t total = 0;
  for (const auto& layer : layers_)
    for (Param* p : const_cast<Layer&>(*layer).params()) total += p->count();
  return total;
}

Network Network::clone() const {
  Network copy(name_);
  copy.training_ = training_;
  copy.layers_.reserve(layers_.size());
  for (const auto& layer : layers_) {
    LayerPtr c = layer->clone();
    QNN_CHECK_MSG(c != nullptr,
                  "layer " << layer->name() << " does not support clone()");
    c->set_name(layer->name());
    copy.layers_.push_back(std::move(c));
  }
  return copy;
}

void Network::copy_params_from(const Network& other) {
  auto dst = trainable_params();
  auto src = const_cast<Network&>(other).trainable_params();
  QNN_CHECK_MSG(dst.size() == src.size(), "param list mismatch");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    QNN_CHECK(dst[i]->value.shape() == src[i]->value.shape());
    dst[i]->value = src[i]->value;
  }
}

}  // namespace qnn::nn
