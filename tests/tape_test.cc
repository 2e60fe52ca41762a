// The backward tape (nn/network.h): a Network keeps each layer's forward
// input only while in training mode, and backward reads it from there.
// A backward with no training forward behind it — after an eval-mode
// forward, after a training forward that an eval forward cleared, or on
// a clone, which copies parameters only — throws instead of running on
// inputs the network no longer has.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nn/loss.h"
#include "nn/network.h"
#include "nn/zoo.h"
#include "quant/qnetwork.h"
#include "util/check.h"
#include "util/rng.h"

namespace qnn {
namespace {

Tensor lenet_batch(std::uint64_t seed) {
  std::vector<std::int64_t> dims = nn::input_shape_for("lenet").dims();
  dims[0] = 3;
  Tensor x{Shape{dims}};
  Rng rng(seed);
  x.fill_uniform(rng, 0.0f, 1.0f);
  return x;
}

Tensor logits_grad(const Tensor& logits) {
  return nn::softmax_cross_entropy(logits, {1, 4, 7}).grad_logits;
}

TEST(Tape, TrainingForwardFeedsBackward) {
  auto net = nn::make_network("lenet", {0.25, 3});
  const Tensor g = logits_grad(net->forward(lenet_batch(1)));
  net->backward(g);
  double sum = 0.0;
  for (nn::Param* p : net->trainable_params()) sum += p->grad.max_abs();
  EXPECT_GT(sum, 0.0);
}

TEST(Tape, BackwardAfterEvalForwardThrows) {
  auto net = nn::make_network("lenet", {0.25, 3});
  net->set_training_mode(false);
  const Tensor g = logits_grad(net->forward(lenet_batch(1)));
  EXPECT_THROW(net->backward(g), CheckError);
}

TEST(Tape, EvalForwardClearsTheTrainingTape) {
  auto net = nn::make_network("lenet", {0.25, 3});
  const Tensor g = logits_grad(net->forward(lenet_batch(1)));
  net->set_training_mode(false);
  (void)net->forward(lenet_batch(2));
  EXPECT_THROW(net->backward(g), CheckError);
  // Back in training mode, the next forward records again.
  net->set_training_mode(true);
  net->backward(logits_grad(net->forward(lenet_batch(1))));
}

TEST(Tape, CloneAfterForwardCarriesNoTape) {
  auto net = nn::make_network("lenet", {0.25, 3});
  const Tensor g = logits_grad(net->forward(lenet_batch(1)));
  nn::Network copy = net->clone();
  EXPECT_THROW(copy.backward(g), CheckError);
  net->backward(g);  // the original keeps its own tape
}

// QuantizedNetwork's step-wise forward records through the Network, so
// a QAT backward needs a training-mode forward too.
TEST(Tape, QuantizedBackwardAfterEvalForwardThrows) {
  auto net = nn::make_network("lenet", {0.25, 3});
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(lenet_batch(4));
  qnet.backward(logits_grad(qnet.forward(lenet_batch(1))));
  qnet.set_training_mode(false);
  const Tensor g = logits_grad(qnet.forward(lenet_batch(1)));
  EXPECT_THROW(qnet.backward(g), CheckError);
}

}  // namespace
}  // namespace qnn
