#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/inner_product.h"
#include "nn/network.h"
#include "nn/pool.h"
#include "util/check.h"

namespace qnn::nn {
namespace {

// ----------------------------------------------------------------- Conv

TEST(Conv2d, OutputShape) {
  ConvSpec spec;
  spec.out_channels = 20;
  spec.kernel = 5;
  Conv2d conv(1, spec);
  EXPECT_EQ(conv.output_shape(Shape{2, 1, 28, 28}), Shape({2, 20, 24, 24}));
}

TEST(Conv2d, OutputShapeWithPadAndStride) {
  ConvSpec spec;
  spec.out_channels = 8;
  spec.kernel = 3;
  spec.stride = 2;
  spec.pad = 1;
  Conv2d conv(3, spec);
  EXPECT_EQ(conv.output_shape(Shape{1, 3, 32, 32}), Shape({1, 8, 16, 16}));
}

TEST(Conv2d, IdentityKernelForward) {
  // 1x1 kernel with weight 1: output == input (per channel).
  ConvSpec spec;
  spec.out_channels = 1;
  spec.kernel = 1;
  Conv2d conv(1, spec);
  conv.weight().value.fill(1.0f);
  Tensor in(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor out = conv.forward(in);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(Conv2d, KnownSmallConvolution) {
  // 3×3 input, 2×2 all-ones kernel: each output = window sum.
  ConvSpec spec;
  spec.out_channels = 1;
  spec.kernel = 2;
  Conv2d conv(1, spec);
  conv.weight().value.fill(1.0f);
  conv.bias().value.fill(0.5f);
  Tensor in(Shape{1, 1, 3, 3}, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor out = conv.forward(in);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 0 + 1 + 3 + 4 + 0.5f);
  EXPECT_FLOAT_EQ(out[3], 4 + 5 + 7 + 8 + 0.5f);
}

TEST(Conv2d, MultiChannelAccumulates) {
  ConvSpec spec;
  spec.out_channels = 1;
  spec.kernel = 1;
  Conv2d conv(2, spec);
  conv.weight().value = Tensor(Shape{1, 2, 1, 1}, {2.0f, 3.0f});
  Tensor in(Shape{1, 2, 1, 1}, {10.0f, 100.0f});
  const Tensor out = conv.forward(in);
  EXPECT_FLOAT_EQ(out[0], 2 * 10 + 3 * 100);
}

TEST(Conv2d, BatchIndependence) {
  ConvSpec spec;
  spec.out_channels = 4;
  spec.kernel = 3;
  Conv2d conv(2, spec);
  Rng rng(3);
  conv.init_weights(rng);
  Tensor a(Shape{1, 2, 6, 6}), b(Shape{1, 2, 6, 6});
  a.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  // Concatenate into one batch.
  Tensor both(Shape{2, 2, 6, 6});
  std::copy_n(a.data(), a.count(), both.data());
  std::copy_n(b.data(), b.count(), both.data() + a.count());
  const Tensor oa = conv.forward(a);
  const Tensor ob = conv.forward(b);
  const Tensor oboth = conv.forward(both);
  for (std::int64_t i = 0; i < oa.count(); ++i) {
    EXPECT_FLOAT_EQ(oboth[i], oa[i]);
    EXPECT_FLOAT_EQ(oboth[oa.count() + i], ob[i]);
  }
}

TEST(Conv2d, WrongChannelCountThrows) {
  ConvSpec spec;
  spec.out_channels = 4;
  spec.kernel = 3;
  Conv2d conv(3, spec);
  Tensor in(Shape{1, 2, 8, 8});
  EXPECT_THROW(conv.forward(in), CheckError);
}

// The forward's input a backward needs is on the network's tape, so the
// network is where a backward without a forward is caught.
TEST(Conv2d, BackwardBeforeForwardThrows) {
  ConvSpec spec;
  spec.out_channels = 1;
  spec.kernel = 1;
  Network net;
  net.add<Conv2d>(1, spec);
  EXPECT_THROW(net.backward(Tensor(Shape{1, 1, 1, 1})), CheckError);
}

TEST(Conv2d, DescribeCountsMacsAndParams) {
  ConvSpec spec;
  spec.out_channels = 20;
  spec.kernel = 5;
  Conv2d conv(1, spec);
  const LayerDesc d = conv.describe(Shape{1, 1, 28, 28});
  EXPECT_EQ(d.kind, "conv");
  EXPECT_EQ(d.fan_in, 25);
  EXPECT_EQ(d.macs, 25 * 20 * 24 * 24);
  EXPECT_EQ(d.weights, 20 * 25);
  EXPECT_EQ(d.biases, 20);
}

TEST(Conv2d, NoBiasVariant) {
  ConvSpec spec;
  spec.out_channels = 2;
  spec.kernel = 1;
  spec.bias = false;
  Conv2d conv(1, spec);
  EXPECT_EQ(conv.params().size(), 1u);
  EXPECT_EQ(conv.describe(Shape{1, 1, 4, 4}).biases, 0);
}

// ----------------------------------------------------------------- Pool

TEST(Pool2d, MaxPoolKnownValues) {
  Pool2d pool(PoolSpec{PoolMode::kMax, 2, 2, 0});
  Tensor in(Shape{1, 1, 4, 4},
            {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor out = pool.forward(in);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 6);
  EXPECT_FLOAT_EQ(out[1], 8);
  EXPECT_FLOAT_EQ(out[2], 14);
  EXPECT_FLOAT_EQ(out[3], 16);
}

TEST(Pool2d, AvgPoolKnownValues) {
  Pool2d pool(PoolSpec{PoolMode::kAvg, 2, 2, 0});
  Tensor in(Shape{1, 1, 2, 4}, {1, 3, 5, 7, 2, 4, 6, 8});
  const Tensor out = pool.forward(in);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 6.5f);
}

TEST(Pool2d, CeilModeMatchesCaffe) {
  // Caffe: 3×3 stride-2 pooling on 32 -> 16 (ceil((32-3)/2)+1 = 16).
  Pool2d pool(PoolSpec{PoolMode::kMax, 3, 2, 0});
  EXPECT_EQ(pool.output_shape(Shape{1, 8, 32, 32}), Shape({1, 8, 16, 16}));
  // On 8 -> 4.
  EXPECT_EQ(pool.output_shape(Shape{1, 8, 8, 8}), Shape({1, 8, 4, 4}));
  // Even kernel/stride: 24 -> 12.
  Pool2d even(PoolSpec{PoolMode::kMax, 2, 2, 0});
  EXPECT_EQ(even.output_shape(Shape{1, 8, 24, 24}), Shape({1, 8, 12, 12}));
}

TEST(Pool2d, EdgeWindowsClipToInput) {
  // 3×3 stride-2 on a 5×5 ramp: the last window is clipped; avg must
  // divide by the clipped count.
  Pool2d pool(PoolSpec{PoolMode::kAvg, 3, 2, 0});
  Tensor in(Shape{1, 1, 5, 5});
  in.fill(1.0f);
  const Tensor out = pool.forward(in);
  // ceil((5-3)/2)+1 = 2.
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  for (std::int64_t i = 0; i < out.count(); ++i)
    EXPECT_FLOAT_EQ(out[i], 1.0f);  // uniform input stays uniform
}

TEST(Pool2d, KernelBelowStrideDropsEmptyWindow) {
  // Kernel 1, stride 2, no pad on 4x4: ceil((4-1)/2)+1 = 3 windows per
  // side, but the third would start at 4, wholly outside the image, so
  // the extent clips to 2 whatever the pad.
  Tensor in(Shape{1, 1, 4, 4},
            {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  Pool2d max_pool(PoolSpec{PoolMode::kMax, 1, 2, 0});
  const Tensor out = max_pool.forward(in);
  ASSERT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 1);
  EXPECT_FLOAT_EQ(out[1], 3);
  EXPECT_FLOAT_EQ(out[2], 9);
  EXPECT_FLOAT_EQ(out[3], 11);
  // The argmax of each output is its one cell: 0, 2, 8, 10.
  const Tensor gin =
      max_pool.backward(in, Tensor(Shape{1, 1, 2, 2}, {1, 2, 3, 4}));
  for (std::int64_t i = 0; i < gin.count(); ++i) {
    const float want = i == 0 ? 1 : i == 2 ? 2 : i == 8 ? 3 : i == 10 ? 4 : 0;
    EXPECT_FLOAT_EQ(gin[i], want) << i;
  }
  Pool2d avg_pool(PoolSpec{PoolMode::kAvg, 1, 2, 0});
  const Tensor avg = avg_pool.forward(in);
  ASSERT_EQ(avg.shape(), Shape({1, 1, 2, 2}));
  for (std::int64_t i = 0; i < avg.count(); ++i) {
    EXPECT_FALSE(std::isnan(avg[i])) << i;
    EXPECT_FLOAT_EQ(avg[i], out[i]) << i;
  }
}

TEST(Pool2d, MaxBackwardRoutesToArgmax) {
  Pool2d pool(PoolSpec{PoolMode::kMax, 2, 2, 0});
  Tensor in(Shape{1, 1, 2, 2}, {1, 9, 3, 4});
  (void)pool.forward(in);
  Tensor g(Shape{1, 1, 1, 1}, {5.0f});
  const Tensor gin = pool.backward(in, g);
  EXPECT_FLOAT_EQ(gin[0], 0);
  EXPECT_FLOAT_EQ(gin[1], 5);
  EXPECT_FLOAT_EQ(gin[2], 0);
  EXPECT_FLOAT_EQ(gin[3], 0);
}

TEST(Pool2d, AvgBackwardDistributesEvenly) {
  Pool2d pool(PoolSpec{PoolMode::kAvg, 2, 2, 0});
  Tensor in(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  (void)pool.forward(in);
  Tensor g(Shape{1, 1, 1, 1}, {8.0f});
  const Tensor gin = pool.backward(in, g);
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gin[i], 2.0f);
}

TEST(Pool2d, InvalidSpecThrows) {
  EXPECT_THROW(Pool2d(PoolSpec{PoolMode::kMax, 0, 2, 0}), CheckError);
  EXPECT_THROW(Pool2d(PoolSpec{PoolMode::kMax, 2, 2, 2}), CheckError);
}

// ----------------------------------------------------- InnerProduct

TEST(InnerProduct, KnownForward) {
  InnerProduct ip(3, 2);
  ip.weight().value = Tensor(Shape{2, 3}, {1, 0, -1, 2, 2, 2});
  ip.bias().value = Tensor(Shape{2}, {0.5f, -0.5f});
  Tensor in(Shape{1, 3}, {1, 2, 3});
  const Tensor out = ip.forward(in);
  EXPECT_FLOAT_EQ(out[0], 1 - 3 + 0.5f);
  EXPECT_FLOAT_EQ(out[1], 2 + 4 + 6 - 0.5f);
}

TEST(InnerProduct, FlattensRank4Input) {
  InnerProduct ip(8, 2);
  Rng rng(5);
  ip.init_weights(rng);
  Tensor in(Shape{3, 2, 2, 2});
  in.fill_uniform(rng, -1, 1);
  const Tensor out = ip.forward(in);
  EXPECT_EQ(out.shape(), Shape({3, 2}));
  // Same data pre-flattened gives identical outputs.
  const Tensor out2 = ip.forward(in.reshaped(Shape{3, 8}));
  for (std::int64_t i = 0; i < out.count(); ++i)
    EXPECT_FLOAT_EQ(out[i], out2[i]);
}

TEST(InnerProduct, WrongFeatureCountThrows) {
  InnerProduct ip(8, 2);
  EXPECT_THROW(ip.forward(Tensor(Shape{1, 7})), CheckError);
}

TEST(InnerProduct, BackwardReturnsInputShapedGradient) {
  InnerProduct ip(8, 2);
  Rng rng(5);
  ip.init_weights(rng);
  Tensor in(Shape{3, 2, 2, 2});
  in.fill_uniform(rng, -1, 1);
  (void)ip.forward(in);
  Tensor g(Shape{3, 2});
  g.fill(1.0f);
  const Tensor gin = ip.backward(in, g);
  EXPECT_EQ(gin.shape(), Shape({3, 2, 2, 2}));
}

TEST(InnerProduct, DescribeCounts) {
  InnerProduct ip(800, 500);
  const LayerDesc d = ip.describe(Shape{1, 50, 4, 4});
  EXPECT_EQ(d.kind, "inner_product");
  EXPECT_EQ(d.macs, 800 * 500);
  EXPECT_EQ(d.weights, 800 * 500);
  EXPECT_EQ(d.biases, 500);
  EXPECT_EQ(d.fan_in, 800);
}

// ------------------------------------------------------------- ReLU

TEST(Relu, ClampsNegatives) {
  Relu relu;
  Tensor in(Shape{1, 4}, {-1, 0, 2, -3});
  const Tensor out = relu.forward(in);
  EXPECT_FLOAT_EQ(out[0], 0);
  EXPECT_FLOAT_EQ(out[1], 0);
  EXPECT_FLOAT_EQ(out[2], 2);
  EXPECT_FLOAT_EQ(out[3], 0);
}

TEST(Relu, BackwardMasksByActivation) {
  Relu relu;
  Tensor in(Shape{1, 3}, {-1, 1, 2});
  (void)relu.forward(in);
  Tensor g(Shape{1, 3}, {10, 10, 10});
  const Tensor gin = relu.backward(in, g);
  EXPECT_FLOAT_EQ(gin[0], 0);
  EXPECT_FLOAT_EQ(gin[1], 10);
  EXPECT_FLOAT_EQ(gin[2], 10);
}

TEST(Relu, PreservesShape) {
  Relu relu;
  EXPECT_EQ(relu.output_shape(Shape{2, 3, 4, 5}), Shape({2, 3, 4, 5}));
}

}  // namespace
}  // namespace qnn::nn
