#include <gtest/gtest.h>

#include "nn/activation.h"
#include "nn/inner_product.h"
#include "nn/network.h"
#include "quant/range_analysis.h"

namespace qnn::quant {
namespace {

std::unique_ptr<nn::Network> two_layer_net() {
  auto net = std::make_unique<nn::Network>("ra");
  net->add<nn::InnerProduct>(4, 3);
  net->add<nn::Relu>();
  net->add<nn::InnerProduct>(3, 2);
  Rng rng(2);
  net->init_weights(rng);
  return net;
}

TEST(RangeAnalysis, SiteCountIsLayersPlusOne) {
  auto net = two_layer_net();
  Tensor batch(Shape{8, 4});
  Rng rng(1);
  batch.fill_uniform(rng, -1, 1);
  const RangeStats s = analyze_ranges(*net, batch);
  EXPECT_EQ(s.site_max_abs.size(), net->num_layers() + 1);
  EXPECT_EQ(s.site_samples.size(), net->num_layers() + 1);
}

TEST(RangeAnalysis, InputSiteMatchesBatchMax) {
  auto net = two_layer_net();
  Tensor batch(Shape{4, 4});
  batch.fill(0.0f);
  batch[5] = -2.5f;
  const RangeStats s = analyze_ranges(*net, batch);
  EXPECT_DOUBLE_EQ(s.site_max_abs[0], 2.5);
}

TEST(RangeAnalysis, ParamStatsMatchTensors) {
  auto net = two_layer_net();
  auto params = net->trainable_params();
  params[0]->value.fill(0.25f);
  params[0]->value[0] = -3.0f;
  Tensor batch(Shape{2, 4});
  const RangeStats s = analyze_ranges(*net, batch);
  EXPECT_EQ(s.param_max_abs.size(), params.size());
  EXPECT_DOUBLE_EQ(s.param_max_abs[0], 3.0);
  EXPECT_GE(s.global_param_max_abs, 3.0);
}

TEST(RangeAnalysis, GlobalsAreMaxOverGroups) {
  auto net = two_layer_net();
  Tensor batch(Shape{2, 4});
  Rng rng(7);
  batch.fill_uniform(rng, -1, 1);
  const RangeStats s = analyze_ranges(*net, batch);
  double expect = 0;
  for (double m : s.site_max_abs) expect = std::max(expect, m);
  EXPECT_DOUBLE_EQ(s.global_data_max_abs, expect);
  expect = 0;
  for (double m : s.param_max_abs) expect = std::max(expect, m);
  EXPECT_DOUBLE_EQ(s.global_param_max_abs, expect);
}

TEST(RangeAnalysis, SamplesAreCapped) {
  auto net = std::make_unique<nn::Network>("big");
  net->add<nn::InnerProduct>(64, 32);
  Rng rng(3);
  net->init_weights(rng);
  Tensor batch(Shape{512, 64});  // 32k input values
  batch.fill_uniform(rng, -1, 1);
  const RangeStats s = analyze_ranges(*net, batch);
  EXPECT_LE(s.site_samples[0].size(), 2 * kMaxCalibrationSamples);
  EXPECT_GE(s.site_samples[0].size(), 1000u);
  // RadixPolicy::kGlobal's merge of every site re-thins to the cap too.
  EXPECT_LE(merge_samples(s.site_samples).size(), 2 * kMaxCalibrationSamples);
}

TEST(RangeAnalysis, ReluSiteIsNonNegative) {
  auto net = two_layer_net();
  Tensor batch(Shape{8, 4});
  Rng rng(5);
  batch.fill_uniform(rng, -1, 1);
  const RangeStats s = analyze_ranges(*net, batch);
  // Site 2 is the ReLU output: samples must be >= 0.
  for (float v : s.site_samples[2]) EXPECT_GE(v, 0.0f);
}

}  // namespace
}  // namespace qnn::quant
