// Equivalence of the integer-domain NFU simulator with the fake-
// quantized float path — the evidence that quantization-aware training
// on float tensors is faithful to what the accelerator executes — plus
// hand-computed golden words for the shared integer lowering
// (quant/int_plan) and the approximate-multiplier hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "fixed/fixed_arith.h"
#include "hw/nfu_sim.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/inner_product.h"
#include "nn/pool.h"
#include "nn/zoo.h"
#include "quant/int_inference.h"
#include "util/check.h"

namespace qnn::hw {
namespace {

std::unique_ptr<nn::Network> tiny_cnn(std::uint64_t seed = 3) {
  auto net = std::make_unique<nn::Network>("tiny");
  nn::ConvSpec c1;
  c1.out_channels = 4;
  c1.kernel = 3;
  net->add<nn::Conv2d>(2, c1);                               // 8 -> 6
  net->add<nn::Pool2d>(nn::PoolSpec{nn::PoolMode::kMax, 2, 2, 0});
  net->add<nn::Relu>();
  nn::ConvSpec c2;
  c2.out_channels = 3;
  c2.kernel = 2;
  net->add<nn::Conv2d>(4, c2);                               // 3 -> 2
  net->add<nn::Pool2d>(nn::PoolSpec{nn::PoolMode::kAvg, 2, 2, 0});
  net->add<nn::InnerProduct>(3, 5);
  Rng rng(seed);
  net->init_weights(rng);
  return net;
}

Tensor tiny_input(std::int64_t n = 4, std::uint64_t seed = 7) {
  Tensor t(Shape{n, 2, 8, 8});
  Rng rng(seed);
  t.fill_uniform(rng, 0, 1);
  return t;
}

// Max |difference| between the two paths, in units of the final output
// format's grid step.
double max_diff_in_steps(nn::Network& net,
                         const quant::PrecisionConfig& cfg,
                         const Shape& input_shape, const Tensor& input) {
  quant::QuantizedNetwork qnet(net, cfg);
  qnet.calibrate(input);
  const Tensor float_path = qnet.forward(input);
  qnet.restore_masters();

  const NfuSimulator sim(net, qnet, input_shape);
  const Tensor int_path = sim.forward(input);

  const auto& fq = dynamic_cast<const quant::FixedQuantizer&>(
      qnet.data_quantizer(qnet.num_sites() - 1));
  const double step = fq.format()->step();
  double worst = 0;
  for (std::int64_t i = 0; i < float_path.count(); ++i)
    worst = std::max(worst,
                     std::fabs(static_cast<double>(float_path[i]) -
                               int_path[i]) /
                         step);
  return worst;
}

TEST(NfuSim, EncodeDecodeRoundTrip) {
  FixedPointFormat f(8, 4);
  Tensor t(Shape{4}, {0.5f, -1.25f, 100.0f, -0.031f});
  const quant::RawTensor r = quant::encode_tensor(t, f);
  const Tensor back = r.decode();
  EXPECT_FLOAT_EQ(back[0], 0.5f);
  EXPECT_FLOAT_EQ(back[1], -1.25f);
  EXPECT_FLOAT_EQ(back[2], static_cast<float>(f.max_value()));  // saturated
  EXPECT_FLOAT_EQ(back[3], 0.0f);  // below half step
}

class NfuEquivalence
    : public ::testing::TestWithParam<quant::PrecisionConfig> {};

TEST_P(NfuEquivalence, IntegerPathMatchesFloatPathWithinOneStep) {
  auto net = tiny_cnn();
  const Shape in_shape{1, 2, 8, 8};
  const double worst =
      max_diff_in_steps(*net, GetParam(), in_shape, tiny_input());
  // Exact up to the float32 accumulation rounding of the fake-quantized
  // path: at most ~1 grid step on these fan-ins.
  EXPECT_LE(worst, 1.0 + 1e-9) << GetParam().label();
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, NfuEquivalence,
    ::testing::Values(quant::fixed_config(16, 16), quant::fixed_config(8, 8),
                      quant::fixed_config(4, 4), quant::pow2_config(6, 16),
                      quant::binary_config(16)),
    [](const ::testing::TestParamInfo<quant::PrecisionConfig>& info) {
      return info.param.id();
    });

TEST(NfuSim, ExactForPureFixedDotProduct) {
  // Single inner-product layer with small fan-in: float32 accumulation
  // is exact, so the two paths must agree bit-for-bit.
  auto net = std::make_unique<nn::Network>("dot");
  net->add<nn::InnerProduct>(8, 4);
  Rng rng(5);
  net->init_weights(rng);
  Tensor input(Shape{3, 8});
  input.fill_uniform(rng, 0, 1);

  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(input);
  const Tensor float_path = qnet.forward(input);
  qnet.restore_masters();
  const NfuSimulator sim(*net, qnet, Shape{1, 8});
  const Tensor int_path = sim.forward(input);
  for (std::int64_t i = 0; i < float_path.count(); ++i)
    EXPECT_FLOAT_EQ(float_path[i], int_path[i]);
}

TEST(NfuSim, RejectsFloatConfig) {
  auto net = tiny_cnn();
  quant::QuantizedNetwork qnet(*net, quant::float_config());
  EXPECT_THROW(NfuSimulator(*net, qnet, Shape{1, 2, 8, 8}), CheckError);
}

TEST(NfuSim, RejectsUncalibratedNetwork) {
  auto net = tiny_cnn();
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  EXPECT_THROW(NfuSimulator(*net, qnet, Shape{1, 2, 8, 8}), CheckError);
}

TEST(NfuSim, MastersRestoredAfterConstruction) {
  auto net = tiny_cnn();
  const Tensor master = net->trainable_params()[0]->value;
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(tiny_input());
  const NfuSimulator sim(*net, qnet, Shape{1, 2, 8, 8});
  const Tensor& after = net->trainable_params()[0]->value;
  for (std::int64_t i = 0; i < master.count(); ++i)
    EXPECT_EQ(after[i], master[i]);
}

TEST(NfuSim, StageCountMatchesLayers) {
  auto net = tiny_cnn();
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(tiny_input());
  const NfuSimulator sim(*net, qnet, Shape{1, 2, 8, 8});
  EXPECT_EQ(sim.num_stages(), net->num_layers());
}

TEST(NfuSim, LenetScaleEquivalence) {
  // A realistic architecture (scaled LeNet) stays within one grid step
  // at 8 bits across a batch of real synthetic digits.
  nn::ZooConfig zc;
  zc.channel_scale = 0.2;
  auto net = nn::make_lenet(zc);
  Rng rng(11);
  Tensor input(Shape{2, 1, 28, 28});
  input.fill_uniform(rng, 0, 1);
  const double worst = max_diff_in_steps(
      *net, quant::fixed_config(8, 8), Shape{1, 1, 28, 28}, input);
  EXPECT_LE(worst, 1.0 + 1e-9);
}

TEST(NfuSim, BuildingOnFrozenNetworkKeepsItFrozen) {
  auto net = tiny_cnn();
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(tiny_input());
  qnet.freeze_inference();
  ASSERT_TRUE(qnet.native_int_active());
  const NfuSimulator sim(*net, qnet, Shape{1, 2, 8, 8});
  EXPECT_TRUE(qnet.inference_frozen());
  ASSERT_TRUE(qnet.native_int_active());
  const Tensor x = tiny_input(3, 9);
  const Tensor oracle = sim.forward(x);
  const Tensor got = qnet.forward(x);
  ASSERT_EQ(got.count(), oracle.count());
  for (std::int64_t i = 0; i < got.count(); ++i)
    EXPECT_EQ(got[i], oracle[i]) << "elem " << i;
}

// ---------------------------------------------------------------------
// Golden words. One topology, lowered at each weight-block realization:
// conv(1->1, 2x2, pad 1) 2x2 -> 3x3, max pool 2/2 (ceil mode) -> 2x2,
// avg pool 2/2 -> 1x1, inner product 1 -> 2 with bias. Weights sit on
// their grids, and global max-abs calibration fixes every format from
// the values below, so each expected word is worked out by hand from
// the input x = [[a, b], [c, d]]:
//   conv out (y, x) over the padded window, w = [[w00, w01], [w10, w11]]:
//     [w11 a,        w10 a + w11 b,                 w10 b        ]
//     [w01 a + w11 c, w00 a + w01 b + w10 c + w11 d, w00 b + w10 d]
//     [w01 c,        w00 c + w01 d,                 w00 d        ]
//   max pool windows: rows 0-1 x cols 0-1, rows 0-1 x col 2, row 2 x
//   cols 0-1, row 2 x col 2; avg = their mean m; ip out_j = v_j m + b_j.

struct GoldenNet {
  std::unique_ptr<nn::Network> net;
  Tensor x;
};

GoldenNet golden_net(std::vector<float> input, std::vector<float> conv_w,
                     std::vector<float> ip_w, std::vector<float> ip_b) {
  GoldenNet g;
  g.net = std::make_unique<nn::Network>("golden");
  nn::ConvSpec c;
  c.out_channels = 1;
  c.kernel = 2;
  c.pad = 1;
  g.net->add<nn::Conv2d>(1, c);
  g.net->add<nn::Pool2d>(nn::PoolSpec{nn::PoolMode::kMax, 2, 2, 0});
  g.net->add<nn::Pool2d>(nn::PoolSpec{nn::PoolMode::kAvg, 2, 2, 0});
  g.net->add<nn::InnerProduct>(1, 2);
  g.net->layer(0).params()[0]->value =
      Tensor(Shape{1, 1, 2, 2}, std::move(conv_w));
  g.net->layer(3).params()[0]->value = Tensor(Shape{2, 1}, std::move(ip_w));
  g.net->layer(3).params()[1]->value = Tensor(Shape{2}, std::move(ip_b));
  g.x = Tensor(Shape{1, 1, 2, 2}, std::move(input));
  return g;
}

quant::PrecisionConfig golden_config(quant::PrecisionConfig cfg) {
  cfg.radix_policy = quant::RadixPolicy::kGlobal;
  cfg.calibration = quant::CalibrationRule::kMaxAbs;
  return cfg;
}

void expect_format(const FixedPointFormat& f, int total, int frac) {
  EXPECT_EQ(f.total_bits(), total);
  EXPECT_EQ(f.frac_bits(), frac);
}

// Every golden value is exact in float32 too, so the fake-quantized
// float path lands on the same words.
void expect_float_path_agrees(quant::QuantizedNetwork& qnet,
                              const NfuSimulator& sim, const Tensor& x) {
  const Tensor want = qnet.forward(x);
  qnet.restore_masters();
  const Tensor got = sim.forward(x);
  ASSERT_EQ(got.count(), want.count());
  for (std::int64_t i = 0; i < got.count(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(NfuSimGolden, FixedPointWords) {
  // a, b, c, d = 1, -0.5, 0.5, 0.25; w = [[0.5, -0.25], [1, 0.75]];
  // v = [1.5, -0.5], b = [0.25, -0.125]. Conv max |out| = 1.3125 sets
  // the data grid to Q1.6 (step 1/64); max |param| = 1.5 the same for
  // weights. Conv -> [[0.75, 0.625, -0.5], [0.125, 1.3125, 0],
  // [-0.125, 0.1875, 0.125]]; max pool -> 1.3125, 0, 0.1875, 0.125;
  // m = 0.40625 (26/64); out = [0.859375, -0.328125] = [55, -21] / 64.
  GoldenNet g = golden_net({1.0f, -0.5f, 0.5f, 0.25f},
                           {0.5f, -0.25f, 1.0f, 0.75f}, {1.5f, -0.5f},
                           {0.25f, -0.125f});
  quant::QuantizedNetwork qnet(*g.net,
                               golden_config(quant::fixed_config(8, 8)));
  qnet.calibrate(g.x);
  const NfuSimulator sim(*g.net, qnet, g.x.shape());
  const quant::IntPlan& plan = sim.plan();
  ASSERT_EQ(plan.stages.size(), 4u);
  expect_format(plan.input, 8, 6);
  const quant::IntStage& conv = plan.stages[0];
  EXPECT_EQ(conv.kind, quant::IntStageKind::kConv);
  EXPECT_EQ(conv.weights.code, quant::WeightCode::kFixed);
  expect_format(conv.weights.format, 8, 6);
  EXPECT_EQ(conv.weights.words, (std::vector<std::int32_t>{32, -16, 64, 48}));
  EXPECT_EQ(conv.acc_frac, 12);  // data frac 6 + weight frac 6
  EXPECT_EQ(conv.bias, (std::vector<std::int64_t>{0}));
  const quant::IntStage& ip = plan.stages[3];
  EXPECT_EQ(ip.weights.words, (std::vector<std::int32_t>{96, -32}));
  EXPECT_EQ(ip.acc_frac, 12);
  // 0.25 = 16 and -0.125 = -8 at frac 6, shifted up to frac 12.
  EXPECT_EQ(ip.bias, (std::vector<std::int64_t>{1024, -512}));
  expect_format(ip.out, 8, 6);

  const quant::RawTensor out = sim.forward_raw(g.x);
  EXPECT_EQ(out.shape, (Shape{1, 2}));
  // 96 * 26 + 1024 = 3520 -> 55; -32 * 26 - 512 = -1344 -> -21.
  EXPECT_EQ(out.raw, (std::vector<std::int64_t>{55, -21}));
  expect_float_path_agrees(qnet, sim, g.x);
}

TEST(NfuSimGolden, PowerOfTwoWords) {
  // w = [[0.5, -0.25], [1, 0]] (exponents -1, -2, 0 and one zero);
  // v = [2, -0.125] (exponents 1, -3); b = [0.25, -0.5] on the data-
  // width bias grid Q1.6 (max |param| = 2). Data max |.| = 1.125: Q1.6.
  // Conv -> [[0, 1, -0.5], [-0.25, 1.125, 0], [-0.125, 0.1875, 0.125]];
  // max pool -> 1.125, 0, 0.1875, 0.125; m = 0.359375 (23/64).
  GoldenNet g = golden_net({1.0f, -0.5f, 0.5f, 0.25f},
                           {0.5f, -0.25f, 1.0f, 0.0f}, {2.0f, -0.125f},
                           {0.25f, -0.5f});
  quant::QuantizedNetwork qnet(*g.net,
                               golden_config(quant::pow2_config(6, 8)));
  qnet.calibrate(g.x);
  const NfuSimulator sim(*g.net, qnet, g.x.shape());
  const quant::IntPlan& plan = sim.plan();
  expect_format(plan.input, 8, 6);
  const quant::IntStage& conv = plan.stages[0];
  EXPECT_EQ(conv.weights.code, quant::WeightCode::kPow2);
  EXPECT_EQ(conv.weights.words, (std::vector<std::int32_t>{-1, -2, 0, 0}));
  EXPECT_EQ(conv.weights.sign, (std::vector<std::int8_t>{1, -1, 1, 0}));
  EXPECT_EQ(conv.weights.headroom, 2);
  EXPECT_EQ(conv.acc_frac, 8);  // data frac 6 + headroom 2
  const quant::IntStage& ip = plan.stages[3];
  EXPECT_EQ(ip.weights.words, (std::vector<std::int32_t>{1, -3}));
  EXPECT_EQ(ip.weights.sign, (std::vector<std::int8_t>{1, -1}));
  EXPECT_EQ(ip.weights.headroom, 3);
  EXPECT_EQ(ip.acc_frac, 9);
  // 16 and -32 at frac 6, shifted up to frac 9.
  EXPECT_EQ(ip.bias, (std::vector<std::int64_t>{128, -256}));

  // (23 << 4) + 128 = 496 -> 62; -23 - 256 = -279 -> -34.875 -> -35.
  EXPECT_EQ(sim.forward_raw(g.x).raw, (std::vector<std::int64_t>{62, -35}));
  expect_float_path_agrees(qnet, sim, g.x);
}

TEST(NfuSimGolden, BinaryWords) {
  // Mean-abs binary: w masters [[0.75, -0.25], [0.25, -0.75]] -> signs
  // [[+, -], [+, -]], scale 0.5; v masters [1, -0.5] -> signs [+, -],
  // scale 0.75; b = [0.25, -0.125] on the bias grid Q0.7 (max |param|
  // = 1). a, b, c, d = 1.5, -0.5, 0.5, 0.25: data max 1.5, Q1.6.
  // Conv -> [[-0.75, 1, -0.25], [-1, 1.125, -0.125], [-0.25, 0.125,
  // 0.125]]; max pool -> 1.125, -0.125, 0.125, 0.125; m = 0.3125.
  GoldenNet g = golden_net({1.5f, -0.5f, 0.5f, 0.25f},
                           {0.75f, -0.25f, 0.25f, -0.75f}, {1.0f, -0.5f},
                           {0.25f, -0.125f});
  quant::QuantizedNetwork qnet(
      *g.net, golden_config(quant::binary_config(
                  8, BinaryScaleMode::kMeanAbs)));
  qnet.calibrate(g.x);
  const NfuSimulator sim(*g.net, qnet, g.x.shape());
  const quant::IntPlan& plan = sim.plan();
  expect_format(plan.input, 8, 6);
  const quant::IntStage& conv = plan.stages[0];
  EXPECT_EQ(conv.weights.code, quant::WeightCode::kBinary);
  EXPECT_EQ(conv.weights.sign, (std::vector<std::int8_t>{1, -1, 1, -1}));
  EXPECT_EQ(conv.weights.scale, 0.5);
  EXPECT_EQ(conv.acc_frac, 6);  // the sign-mux keeps the data grid
  const quant::IntStage& ip = plan.stages[3];
  EXPECT_EQ(ip.weights.sign, (std::vector<std::int8_t>{1, -1}));
  EXPECT_EQ(ip.weights.scale, 0.75);
  // 32 and -16 at frac 7, shifted down to frac 6.
  EXPECT_EQ(ip.bias, (std::vector<std::int64_t>{16, -8}));

  // The scale multiplies the sign-mux sum only: m = 20 / 64, so
  // out = [(0.75 * 20 + 16), (-0.75 * 20 - 8)] / 64 = [31, -23] / 64.
  EXPECT_EQ(sim.forward_raw(g.x).raw, (std::vector<std::int64_t>{31, -23}));
  expect_float_path_agrees(qnet, sim, g.x);
}

// ---------------------------------------------------------------------
// The approximate-multiplier hook.

std::unique_ptr<nn::Network> tiny_ip(std::uint64_t seed = 21) {
  auto net = std::make_unique<nn::Network>("ip");
  net->add<nn::InnerProduct>(6, 3);
  Rng rng(seed);
  net->init_weights(rng);
  // Nonzero biases, so the hook is checked with the bias term present.
  Tensor& b = net->layer(0).params()[1]->value;
  b.fill_uniform(rng, -0.25, 0.25);
  return net;
}

Tensor ip_input(std::uint64_t seed) {
  Tensor t(Shape{4, 6});
  Rng rng(seed);
  t.fill_uniform(rng, -1, 1);
  return t;
}

TEST(NfuSim, ApproximateMultiplierReplacesEveryWeightProduct) {
  auto net = tiny_ip();
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(ip_input(5));
  const ApproxMultSpec mitchell{ApproxMultKind::kMitchell, 0};
  const NfuSimulator sim(*net, qnet, Shape{1, 6}, mitchell);
  const NfuSimulator exact(*net, qnet, Shape{1, 6});

  const Tensor x = ip_input(9);
  const quant::RawTensor got = sim.forward_raw(x);
  const quant::IntStage& ip = sim.plan().stages[0];
  const quant::RawTensor in = quant::encode_tensor(x, sim.plan().input);
  const MultiplyFn mul = make_multiplier(mitchell);
  std::vector<std::int64_t> want;
  for (std::int64_t s = 0; s < 4; ++s) {
    for (std::int64_t o = 0; o < 3; ++o) {
      std::int64_t acc = ip.bias[static_cast<std::size_t>(o)];
      for (std::int64_t i = 0; i < 6; ++i)
        acc += mul(ip.weights.words[static_cast<std::size_t>(o * 6 + i)],
                   in.raw[static_cast<std::size_t>(s * 6 + i)]);
      want.push_back(
          std::clamp(shift_raw_rounded(acc, ip.acc_frac, ip.out.frac_bits()),
                     ip.out.raw_min(), ip.out.raw_max()));
    }
  }
  EXPECT_EQ(got.raw, want);
  // Mitchell's log multiplier is inexact on these operands.
  EXPECT_NE(got.raw, exact.forward_raw(x).raw);
}

TEST(NfuSim, ExactMultiplierSpecMatchesDefault) {
  auto net = tiny_ip();
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(ip_input(5));
  const NfuSimulator by_default(*net, qnet, Shape{1, 6});
  const NfuSimulator exact(*net, qnet, Shape{1, 6},
                           ApproxMultSpec{ApproxMultKind::kExact, 0});
  const Tensor x = ip_input(9);
  EXPECT_EQ(exact.forward_raw(x).raw, by_default.forward_raw(x).raw);
}

TEST(NfuSim, ApproximateMultiplierRejectsPow2Config) {
  auto net = tiny_ip();
  quant::QuantizedNetwork qnet(*net, quant::pow2_config(6, 16));
  qnet.calibrate(ip_input(5));
  EXPECT_THROW(NfuSimulator(*net, qnet, Shape{1, 6},
                            ApproxMultSpec{ApproxMultKind::kMitchell, 0}),
               CheckError);
}

}  // namespace
}  // namespace qnn::hw
