#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.h"
#include "nn/lrn.h"
#include "testing/gradient_check.h"

namespace qnn::nn {
namespace {

TEST(Sigmoid, KnownValues) {
  Sigmoid s;
  Tensor in(Shape{1, 3}, {0.0f, 100.0f, -100.0f});
  const Tensor out = s.forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_NEAR(out[1], 1.0f, 1e-6);
  EXPECT_NEAR(out[2], 0.0f, 1e-6);
}

TEST(Sigmoid, GradCheck) {
  Sigmoid s;
  qnn::testing::check_layer_gradients(s, Shape{2, 8});
}

TEST(Tanh, KnownValues) {
  Tanh t;
  Tensor in(Shape{1, 2}, {0.0f, 1.0f});
  const Tensor out = t.forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_NEAR(out[1], std::tanh(1.0f), 1e-6);
}

TEST(Tanh, GradCheck) {
  Tanh t;
  qnn::testing::check_layer_gradients(t, Shape{3, 5});
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout d(0.5);
  d.set_training_mode(false);
  Tensor in(Shape{1, 100});
  Rng rng(1);
  in.fill_uniform(rng, -1, 1);
  const Tensor out = d.forward(in);
  for (std::int64_t i = 0; i < in.count(); ++i)
    EXPECT_EQ(out[i], in[i]);
}

TEST(Dropout, TrainModeDropsAndRescales) {
  Dropout d(0.5, 3);
  Tensor in(Shape{1, 4000});
  in.fill(1.0f);
  const Tensor out = d.forward(in);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < out.count(); ++i) {
    if (out[i] == 0.0f) ++zeros;
    else EXPECT_FLOAT_EQ(out[i], 2.0f);  // 1/(1-0.5)
  }
  EXPECT_NEAR(static_cast<double>(zeros) / out.count(), 0.5, 0.05);
  // Expectation preserved.
  EXPECT_NEAR(out.mean(), 1.0, 0.07);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout d(0.3, 5);
  Tensor in(Shape{1, 64});
  in.fill(1.0f);
  const Tensor out = d.forward(in);
  Tensor g(Shape{1, 64});
  g.fill(1.0f);
  const Tensor gin = d.backward(in, g);
  for (std::int64_t i = 0; i < 64; ++i)
    EXPECT_EQ(gin[i], out[i]);  // same multiplicative mask
}

TEST(Dropout, ZeroProbabilityIsIdentityEvenInTraining) {
  Dropout d(0.0);
  Tensor in(Shape{1, 8});
  Rng rng(2);
  in.fill_uniform(rng, -1, 1);
  const Tensor out = d.forward(in);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(Dropout, InvalidProbabilityThrows) {
  EXPECT_THROW(Dropout(1.0), CheckError);
  EXPECT_THROW(Dropout(-0.1), CheckError);
}

TEST(Lrn, UnitInputKnownValue) {
  // Uniform input of 1.0, local_size covering all channels:
  // out = 1 / (k + alpha/n * n)^beta = (k + alpha)^-beta.
  LrnSpec spec;
  spec.local_size = 3;
  spec.alpha = 3.0;  // exaggerated so the effect is visible
  spec.beta = 0.5;
  spec.k = 1.0;
  Lrn lrn(spec);
  Tensor in(Shape{1, 3, 1, 1}, {1.0f, 1.0f, 1.0f});
  const Tensor out = lrn.forward(in);
  // Center channel sees all 3 ones: scale = 1 + 1*3 = ... alpha/n = 1.
  EXPECT_NEAR(out[1], 1.0 / std::sqrt(1.0 + 3.0), 1e-5);
  // Edge channels see 2 ones: scale = 1 + 2.
  EXPECT_NEAR(out[0], 1.0 / std::sqrt(3.0), 1e-5);
}

TEST(Lrn, SuppressesLargeChannels) {
  LrnSpec spec;
  spec.local_size = 5;
  spec.alpha = 1.0;
  Lrn lrn(spec);
  Tensor in(Shape{1, 5, 1, 1}, {0.1f, 0.1f, 10.0f, 0.1f, 0.1f});
  const Tensor out = lrn.forward(in);
  // The big activation is normalized down much more than the small ones.
  EXPECT_LT(out[2] / in[2], out[0] / in[0]);
}

TEST(Lrn, GradCheck) {
  LrnSpec spec;
  spec.local_size = 3;
  spec.alpha = 0.5;
  spec.beta = 0.75;
  Lrn lrn(spec);
  qnn::testing::check_layer_gradients(lrn, Shape{2, 4, 3, 3},
                                      /*seed=*/9, /*eps=*/1e-3,
                                      /*tol=*/1e-2);
}

TEST(Lrn, EvenLocalSizeThrows) {
  LrnSpec spec;
  spec.local_size = 4;
  EXPECT_THROW(Lrn{spec}, CheckError);
}

}  // namespace
}  // namespace qnn::nn
