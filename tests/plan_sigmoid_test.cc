#include <gtest/gtest.h>

#include <cmath>

#include "fixed/plan_sigmoid.h"
#include "nn/activation.h"
#include "quant/qnetwork.h"
#include "hw/nfu_sim.h"
#include "nn/inner_product.h"
#include "nn/network.h"

namespace qnn {
namespace {

TEST(PlanSigmoid, AnchorsExact) {
  EXPECT_DOUBLE_EQ(plan_sigmoid(0.0), 0.5);
  EXPECT_DOUBLE_EQ(plan_sigmoid(5.0), 1.0);
  EXPECT_DOUBLE_EQ(plan_sigmoid(100.0), 1.0);
  EXPECT_DOUBLE_EQ(plan_sigmoid(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(plan_sigmoid(-100.0), 0.0);
}

TEST(PlanSigmoid, WithinDocumentedErrorBound) {
  for (double x = -8.0; x <= 8.0; x += 0.01) {
    const double exact = 1.0 / (1.0 + std::exp(-x));
    EXPECT_LE(std::fabs(plan_sigmoid(x) - exact),
              kPlanSigmoidMaxError + 1e-12)
        << "x=" << x;
  }
}

TEST(PlanSigmoid, MonotoneNonDecreasing) {
  double prev = plan_sigmoid(-10.0);
  for (double x = -10.0; x <= 10.0; x += 0.05) {
    const double y = plan_sigmoid(x);
    EXPECT_GE(y, prev - 1e-12) << "x=" << x;
    prev = y;
  }
}

TEST(PlanSigmoid, SymmetryAroundHalf) {
  for (double x = 0.0; x <= 6.0; x += 0.1)
    EXPECT_NEAR(plan_sigmoid(x) + plan_sigmoid(-x), 1.0, 1e-12);
}

TEST(PlanTanh, BoundAndSign) {
  EXPECT_DOUBLE_EQ(plan_tanh(0.0), 0.0);
  for (double x = -5.0; x <= 5.0; x += 0.05) {
    const double y = plan_tanh(x);
    EXPECT_LE(std::fabs(y), 1.0 + 1e-12);
    EXPECT_LE(std::fabs(y - std::tanh(x)), 2 * kPlanSigmoidMaxError + 1e-12)
        << "x=" << x;
  }
}

TEST(NfuSimPlan, SigmoidNetworkRunsInIntegerDomain) {
  auto net = std::make_unique<nn::Network>("sig");
  net->add<nn::InnerProduct>(6, 8);
  net->add<nn::Sigmoid>();
  net->add<nn::InnerProduct>(8, 3);
  Rng rng(4);
  net->init_weights(rng);
  Tensor batch(Shape{4, 6});
  batch.fill_uniform(rng, 0, 1);

  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(batch);
  const Tensor float_path = qnet.forward(batch);
  qnet.restore_masters();

  const hw::NfuSimulator sim(*net, qnet, Shape{1, 6});
  const Tensor int_path = sim.forward(batch);
  // Float path uses the exact sigmoid, integer path PLAN: difference is
  // bounded by the PLAN error propagated through the 3-wide head.
  for (std::int64_t i = 0; i < float_path.count(); ++i)
    EXPECT_NEAR(int_path[i], float_path[i], 0.35)
        << "logit " << i;
}

TEST(NfuSimPlan, DropoutIsInferenceIdentity) {
  auto net = std::make_unique<nn::Network>("drop");
  net->add<nn::InnerProduct>(4, 4);
  net->add<nn::Dropout>(0.5);
  net->add<nn::InnerProduct>(4, 2);
  Rng rng(6);
  net->init_weights(rng);
  // Evaluation mode for the float reference.
  net->set_training_mode(false);
  Tensor batch(Shape{3, 4});
  batch.fill_uniform(rng, 0, 1);
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(batch);
  const Tensor float_path = qnet.forward(batch);
  qnet.restore_masters();
  const hw::NfuSimulator sim(*net, qnet, Shape{1, 4});
  const Tensor int_path = sim.forward(batch);
  const auto& fq = dynamic_cast<const quant::FixedQuantizer&>(
      qnet.data_quantizer(qnet.num_sites() - 1));
  for (std::int64_t i = 0; i < float_path.count(); ++i)
    EXPECT_NEAR(int_path[i], float_path[i], fq.format()->step() + 1e-9);
}

}  // namespace
}  // namespace qnn
