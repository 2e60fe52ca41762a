// The native integer inference path (quant/int_inference) checked
// word-for-word against the NFU bit-level oracle (hw/nfu_sim): frozen
// fixed-point forwards must produce EXACTLY the raw words the
// accelerator simulator computes, at every precision tier, radix
// extreme, SIMD level and thread count. Also covers the int GEMM driver
// on the tier the accumulator bound proves against a naive int64
// reference, the accumulator-bound pass and its kernel-tier plan, the
// fused requant epilogue, the engine's GEMM counters, and which configs
// freeze onto the native path.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "fixed/fixed_arith.h"
#include "hw/nfu_sim.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/inner_product.h"
#include "nn/pool.h"
#include "nn/zoo.h"
#include "obs/metrics.h"
#include "quant/acc_bound.h"
#include "quant/int_inference.h"
#include "quant/qnetwork.h"
#include "tensor/int_gemm.h"
#include "tensor/microkernel.h"
#include "test_env.h"
#include "testing/proven_int_gemm.h"
#include "util/thread_pool.h"

namespace qnn::quant {
namespace {

// ---------------------------------------------------------------------
// The production chooser (testing::proven_int_gemm) vs a naive int64
// reference.

template <typename WordT>
void int_gemm_vs_naive(std::int64_t m, std::int64_t n, std::int64_t k,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(
      std::numeric_limits<WordT>::min(), std::numeric_limits<WordT>::max());
  std::vector<WordT> a(static_cast<std::size_t>(m * k));
  std::vector<WordT> b(static_cast<std::size_t>(n * k));
  for (WordT& v : a) v = static_cast<WordT>(dist(rng));
  for (WordT& v : b) v = static_cast<WordT>(dist(rng));

  std::vector<std::int64_t> want(static_cast<std::size_t>(m * n), 0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<std::int64_t>(a[static_cast<std::size_t>(
                   i * k + p)]) *
               b[static_cast<std::size_t>(j * k + p)];
      want[static_cast<std::size_t>(i * n + j)] = acc;
    }

  std::vector<std::int64_t> got(static_cast<std::size_t>(m * n));
  testing::proven_int_gemm(m, n, k, a.data(), b.data(), got.data());
  ASSERT_EQ(got, want) << "m=" << m << " n=" << n << " k=" << k;
}

TEST(IntGemm, MatchesNaiveReferenceInt8) {
  for (auto [m, n, k] : {std::tuple<std::int64_t, std::int64_t, std::int64_t>
                             {1, 1, 1},
                         {3, 5, 7}, {17, 9, 33}, {64, 10, 300}}) {
    int_gemm_vs_naive<std::int8_t>(m, n, k, 1000 + m + n + k);
  }
}

TEST(IntGemm, MatchesNaiveReferenceInt16) {
  for (auto [m, n, k] : {std::tuple<std::int64_t, std::int64_t, std::int64_t>
                             {1, 1, 1},
                         {3, 5, 7}, {17, 9, 33}, {64, 10, 300}}) {
    int_gemm_vs_naive<std::int16_t>(m, n, k, 2000 + m + n + k);
  }
}

TEST(IntGemm, ThreadCountNeverChangesWords) {
  ThreadGuard guard;
  const std::int64_t m = 130, n = 9, k = 257;
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int> dist(-128, 127);
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * k));
  for (auto& v : a) v = static_cast<std::int8_t>(dist(rng));
  for (auto& v : b) v = static_cast<std::int8_t>(dist(rng));
  ThreadPool::set_global_threads(1);
  std::vector<std::int64_t> base(static_cast<std::size_t>(m * n));
  testing::proven_int_gemm(m, n, k, a.data(), b.data(), base.data());
  for (int threads : {2, 4, 8}) {
    ThreadPool::set_global_threads(threads);
    std::vector<std::int64_t> got(static_cast<std::size_t>(m * n));
    testing::proven_int_gemm(m, n, k, a.data(), b.data(), got.data());
    EXPECT_EQ(got, base) << threads << " threads";
  }
}

// ---------------------------------------------------------------------
// Frozen-network integer forwards vs the NfuSimulator oracle.

std::unique_ptr<nn::Network> lenet_scale_cnn(std::uint64_t seed = 3) {
  // LeNet-shaped: conv -> pool -> relu -> conv -> pool -> ip -> relu
  // -> ip, exercising every native stage kind plus padding.
  auto net = std::make_unique<nn::Network>("lenet_scale");
  nn::ConvSpec c1;
  c1.out_channels = 6;
  c1.kernel = 5;
  c1.pad = 2;
  net->add<nn::Conv2d>(1, c1);  // 12x12 -> 12x12 (padded)
  net->add<nn::Pool2d>(nn::PoolSpec{nn::PoolMode::kMax, 2, 2, 0});
  net->add<nn::Relu>();
  nn::ConvSpec c2;
  c2.out_channels = 8;
  c2.kernel = 3;
  net->add<nn::Conv2d>(6, c2);  // 6x6 -> 4x4
  net->add<nn::Pool2d>(nn::PoolSpec{nn::PoolMode::kAvg, 2, 2, 0});
  net->add<nn::InnerProduct>(8 * 2 * 2, 24);
  net->add<nn::Relu>();
  net->add<nn::InnerProduct>(24, 10);
  Rng rng(seed);
  net->init_weights(rng);
  return net;
}

Tensor cnn_input(std::int64_t n = 3, std::uint64_t seed = 7) {
  Tensor t(Shape{n, 1, 12, 12});
  Rng rng(seed);
  t.fill_uniform(rng, 0, 1);
  return t;
}

// Compares the frozen network's native integer forward against the NFU
// oracle word for word. Both paths decode to the final site's grid, and
// decode is injective at these widths, so float equality IS word
// equality; the raw words are additionally checked via forward_raw.
void expect_matches_oracle(const PrecisionConfig& cfg, bool expect_int8) {
  auto net = lenet_scale_cnn();
  const Tensor calib = cnn_input(4, 5);
  QuantizedNetwork qnet(*net, cfg);
  qnet.calibrate(calib);

  // The oracle lowers a frozen network from its live parameter image
  // and leaves it frozen, engine included.
  qnet.freeze_inference();
  const hw::NfuSimulator sim(*net, qnet, Shape{1, 1, 12, 12});
  ASSERT_TRUE(qnet.native_int_active()) << cfg.label();
  EXPECT_EQ(qnet.int_engine()->uses_int8(), expect_int8) << cfg.label();

  const Tensor x = cnn_input(3, 9);
  const Tensor oracle = sim.forward(x);
  const Tensor got = qnet.forward(x);
  ASSERT_EQ(got.count(), oracle.count());
  for (std::int64_t i = 0; i < got.count(); ++i)
    ASSERT_EQ(got[i], oracle[i]) << cfg.label() << " elem " << i;

  // Raw-word check: re-encoding the oracle's grid floats through the
  // final site format must reproduce the engine's words exactly.
  const RawTensor raw = qnet.int_engine()->forward_raw(x);
  ASSERT_EQ(static_cast<std::int64_t>(raw.raw.size()), oracle.count());
  for (std::int64_t i = 0; i < oracle.count(); ++i)
    ASSERT_EQ(raw.raw[static_cast<std::size_t>(i)],
              raw.format.to_raw(static_cast<double>(oracle[i])))
        << cfg.label() << " elem " << i;
}

TEST(IntInferenceOracle, Fixed16MatchesNfuWordForWord) {
  expect_matches_oracle(fixed_config(16, 16), /*expect_int8=*/false);
}

TEST(IntInferenceOracle, Fixed8MatchesNfuWordForWord) {
  expect_matches_oracle(fixed_config(8, 8), /*expect_int8=*/true);
}

TEST(IntInferenceOracle, Fixed4MatchesNfuWordForWord) {
  expect_matches_oracle(fixed_config(4, 4), /*expect_int8=*/true);
}

TEST(IntInferenceOracle, MixedWidthPicksInt16) {
  // 8-bit data but 16-bit weights: must fall back to int16 words.
  expect_matches_oracle(fixed_config(16, 8), /*expect_int8=*/false);
}

// Sigmoid/tanh PLAN stages and dropout passthrough against the oracle.
TEST(IntInferenceOracle, PlanAndPassthroughStagesMatch) {
  auto net = std::make_unique<nn::Network>("plan");
  net->add<nn::InnerProduct>(6, 8);
  net->add<nn::Sigmoid>();
  net->add<nn::Dropout>(0.5);
  net->add<nn::InnerProduct>(8, 4);
  net->add<nn::Tanh>();
  Rng rng(11);
  net->init_weights(rng);
  net->set_training_mode(false);
  Tensor calib(Shape{4, 6});
  calib.fill_uniform(rng, -1, 1);

  QuantizedNetwork qnet(*net, fixed_config(8, 8));
  qnet.calibrate(calib);
  const hw::NfuSimulator sim(*net, qnet, Shape{1, 6});
  qnet.freeze_inference();
  ASSERT_TRUE(qnet.native_int_active());

  Tensor x(Shape{3, 6});
  Rng rng2(13);
  x.fill_uniform(rng2, -1, 1);
  const Tensor oracle = sim.forward(x);
  const Tensor got = qnet.forward(x);
  for (std::int64_t i = 0; i < got.count(); ++i)
    EXPECT_EQ(got[i], oracle[i]) << "elem " << i;
}

// Saturation / rounding edges: formats with extreme radix points force
// heavy clipping on one side (tiny representable range) and heavy
// rounding on the other (coarse grid). The engine must track the
// oracle's shift-round-saturate word for word through both.
TEST(IntInferenceOracle, ExtremeRadixPointsSaturateIdentically) {
  for (int frac_offset : {-3, 0, 3}) {
    auto net = std::make_unique<nn::Network>("edge");
    net->add<nn::InnerProduct>(5, 7);
    net->add<nn::Relu>();
    net->add<nn::InnerProduct>(7, 3);
    Rng rng(17);
    net->init_weights(rng);
    // Scale the inputs to push the range analysis toward an extreme
    // radix: large values -> few frac bits (rounding-heavy), small
    // values -> many frac bits (saturation-heavy on outliers).
    Tensor calib(Shape{4, 5});
    calib.fill_uniform(rng, 0, 1);
    const float scale = std::ldexp(1.0f, 4 * frac_offset);
    for (std::int64_t i = 0; i < calib.count(); ++i) calib[i] *= scale;

    QuantizedNetwork qnet(*net, fixed_config(8, 8));
    qnet.calibrate(calib);
    const hw::NfuSimulator sim(*net, qnet, Shape{1, 5});
    qnet.freeze_inference();
    ASSERT_TRUE(qnet.native_int_active());

    // Out-of-range inputs exercise input-encode saturation too.
    Tensor x(Shape{3, 5});
    Rng rng2(19);
    x.fill_uniform(rng2, -2, 2);
    for (std::int64_t i = 0; i < x.count(); ++i) x[i] *= scale;
    const Tensor oracle = sim.forward(x);
    const Tensor got = qnet.forward(x);
    for (std::int64_t i = 0; i < got.count(); ++i)
      EXPECT_EQ(got[i], oracle[i])
          << "frac_offset=" << frac_offset << " elem " << i;
  }
}

// The engine's words are identical at every SIMD level and thread
// count (integer accumulation is exact, so this is structural).
TEST(IntInferenceOracle, WordsStableAcrossSimdAndThreads) {
  ThreadGuard guard;
  auto net = lenet_scale_cnn();
  const Tensor calib = cnn_input(4, 5);
  QuantizedNetwork qnet(*net, fixed_config(8, 8));
  qnet.calibrate(calib);
  qnet.freeze_inference();
  ASSERT_TRUE(qnet.native_int_active());
  const Tensor x = cnn_input(3, 9);

  ThreadPool::set_global_threads(1);
  std::optional<RawTensor> base;
  {
    ScopedSimdLevel force(SimdLevel::kScalar);
    base = qnet.int_engine()->forward_raw(x);
  }
  for (int threads : {1, 4, 8}) {
    ThreadPool::set_global_threads(threads);
    for (SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      if (!simd_supports(level)) continue;
      ScopedSimdLevel force(level);
      const RawTensor got = qnet.int_engine()->forward_raw(x);
      EXPECT_EQ(got.raw, base->raw)
          << threads << " threads, " << simd_level_name(level);
    }
  }
}

// ---------------------------------------------------------------------
// The accumulator-bound pass and the plan it produces.

TEST(AccBound, HandComputedInt8Bounds) {
  // Rows {1,-2,3} and {-4,0,0}; biases 10 and -5.
  const std::vector<std::int8_t> w = {1, -2, 3, -4, 0, 0};
  const std::vector<std::int64_t> bias = {10, -5};
  // 8-bit input: |a| <= 128, a + 128 <= 255.
  AccBound b = bound_accumulator(2, 3, w.data(), FixedPointFormat(8, 4),
                                 bias.data());
  EXPECT_EQ(b.max_abs, 128 * 6 + 10);      // 778 (row 0)
  EXPECT_EQ(b.max_offset, 255 * 6);        // 1530
  EXPECT_EQ(b.bits(), 11);                 // 778 < 2^10
  EXPECT_FALSE(b.has_min_word);
  // 4-bit input: |a| <= 8, a + 128 <= 135; no bias.
  b = bound_accumulator(2, 3, w.data(), FixedPointFormat(4, 2), nullptr);
  EXPECT_EQ(b.max_abs, 8 * 6);
  EXPECT_EQ(b.max_offset, 135 * 6);
  EXPECT_EQ(b.bits(), 7);  // 48 < 2^6
  std::string reason;
  EXPECT_EQ(choose_int_tier(8, b, &reason), IntTier::kDot8);
  EXPECT_TRUE(reason.empty());
}

TEST(AccBound, Int8TierNeedsTheOffsetAccumulatorInInt32) {
  // 255 * 128 * k fits int32 up to k = 65793 and not beyond.
  for (const auto& [k, tier] :
       {std::pair<std::int64_t, IntTier>{65793, IntTier::kDot8},
        {65794, IntTier::kExact64}}) {
    const std::vector<std::int8_t> w(static_cast<std::size_t>(k), -128);
    const AccBound b =
        bound_accumulator(1, k, w.data(), FixedPointFormat(8, 0), nullptr);
    EXPECT_EQ(b.max_offset, 255 * 128 * k);
    EXPECT_TRUE(b.has_min_word);  // -128 is fine for the int8 tier
    std::string reason;
    EXPECT_EQ(choose_int_tier(8, b, &reason), tier) << k;
    EXPECT_EQ(reason.empty(), tier == IntTier::kDot8) << reason;
  }
}

TEST(AccBound, Int16TierRejectsOnlyTheMinimumWeightWord) {
  const FixedPointFormat in(16, 8);
  const std::vector<std::int16_t> ok = {32767, -32767, 5};
  AccBound b = bound_accumulator(1, 3, ok.data(), in, nullptr);
  EXPECT_EQ(b.max_abs, std::int64_t{32768} * (32767 + 32767 + 5));
  EXPECT_EQ(b.bits(), 33);
  std::string reason;
  EXPECT_EQ(choose_int_tier(16, b, &reason), IntTier::kMadd16Blocked);
  const std::vector<std::int16_t> bad = {-32768, 1};
  b = bound_accumulator(1, 2, bad.data(), in, nullptr);
  EXPECT_TRUE(b.has_min_word);
  EXPECT_EQ(choose_int_tier(16, b, &reason), IntTier::kExact64);
  EXPECT_NE(reason.find("-32768"), std::string::npos) << reason;
}

// The longest aligned block of `pairs` whose every block keeps a_abs *
// sum|w| within int32, by trying every length on every row.
std::int64_t brute_force_block(std::int64_t rows, std::int64_t k,
                               const std::vector<std::int16_t>& w,
                               std::int64_t a_abs) {
  const std::int64_t pairs = (k + 1) / 2;
  for (std::int64_t b = pairs; b >= 1; --b) {
    bool fits = true;
    for (std::int64_t r = 0; r < rows && fits; ++r)
      for (std::int64_t q0 = 0; q0 < pairs && fits; q0 += b) {
        std::int64_t sum = 0;
        for (std::int64_t p = 2 * q0; p < std::min(2 * (q0 + b), k); ++p)
          sum += std::abs(static_cast<std::int64_t>(
              w[static_cast<std::size_t>(r * k + p)]));
        fits = a_abs * sum <= std::numeric_limits<std::int32_t>::max();
      }
    if (fits) return b;
  }
  return 0;
}

TEST(AccBound, Int32BlockAcceptsExactlyInt32MaxAndShortensPastIt) {
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  // One row of int16 words whose |w| sums to exactly INT32_MAX: with
  // |a| <= 1 the whole K is one block.
  std::vector<std::int16_t> w;
  for (std::int64_t left = kMax32; left > 0;) {
    const std::int64_t v = std::min<std::int64_t>(left, 32767);
    w.push_back(static_cast<std::int16_t>(w.size() % 2 == 0 ? v : -v));
    left -= v;
  }
  const std::size_t partial = w.size() - 1;  // the one word below 32767
  ASSERT_LT(std::abs(w[partial]), 32767);
  const std::int64_t k = static_cast<std::int64_t>(w.size());
  const std::int64_t pairs = (k + 1) / 2;
  EXPECT_EQ(int32_block_pairs(1, k, w.data(), 1), pairs);

  // One more unit of |w| and the whole K no longer fits.
  w[partial] = static_cast<std::int16_t>(w[partial] < 0 ? w[partial] - 1
                                                        : w[partial] + 1);
  const std::int64_t shorter = int32_block_pairs(1, k, w.data(), 1);
  EXPECT_LT(shorter, pairs);
  EXPECT_GE(shorter, 1);
  EXPECT_EQ(shorter, brute_force_block(1, k, w, 1));

  // The same words through a 16-bit input format: |a| <= 2^15 leaves
  // 65535 of |w| per block, two full words.
  const AccBound b =
      bound_accumulator(1, k, w.data(), FixedPointFormat(16, 8), nullptr);
  EXPECT_EQ(b.k_pairs, pairs);
  EXPECT_EQ(b.k_block, 1);
  std::string reason;
  EXPECT_EQ(choose_int_tier(16, b, &reason), IntTier::kMadd16Blocked);
  EXPECT_TRUE(reason.empty()) << reason;

  // A -32768 weight takes the exact int64 tier whatever the blocks.
  w[0] = -32768;
  const AccBound min_word =
      bound_accumulator(1, k, w.data(), FixedPointFormat(16, 8), nullptr);
  EXPECT_EQ(choose_int_tier(16, min_word, &reason), IntTier::kExact64);
  EXPECT_NE(reason.find("-32768"), std::string::npos) << reason;
}

// Aligned blocks need not nest, so the chooser must try every length:
// it matches the brute force on random rows, odd K included.
TEST(AccBound, Int32BlockMatchesBruteForce) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t rows = 1 + static_cast<std::int64_t>(rng() % 4);
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng() % 41);
    const std::int64_t a_abs = std::int64_t{1} << (rng() % 16);
    const int span = 1 << (rng() % 16);
    std::uniform_int_distribution<int> dist(-span + 1, span - 1);
    std::vector<std::int16_t> w(static_cast<std::size_t>(rows * k));
    for (std::int16_t& v : w) v = static_cast<std::int16_t>(dist(rng));
    EXPECT_EQ(int32_block_pairs(rows, k, w.data(), a_abs),
              brute_force_block(rows, k, w, a_abs))
        << "trial " << trial << " k=" << k << " a_abs=" << a_abs;
  }
}

TEST(IntInferenceOracle, PlanProvesFastTiersAndFusesRelu) {
  for (const auto& [cfg, bits, tier] :
       {std::tuple<PrecisionConfig, int, IntTier>{fixed_config(8, 8), 8,
                                                  IntTier::kDot8},
        {fixed_config(4, 4), 8, IntTier::kDot8},
        {fixed_config(16, 16), 16, IntTier::kMadd16Blocked}}) {
    auto net = lenet_scale_cnn();
    QuantizedNetwork qnet(*net, cfg);
    qnet.calibrate(cnn_input(4, 5));
    qnet.freeze_inference();
    ASSERT_TRUE(qnet.native_int_active());
    const IntPathPlan& plan = qnet.int_engine()->plan();
    // conv(0) pool relu conv(3) pool ip(5) relu ip(7)
    ASSERT_EQ(plan.stages.size(), 4u) << cfg.label();
    const std::size_t layers[] = {0, 3, 5, 7};
    for (std::size_t i = 0; i < plan.stages.size(); ++i) {
      const IntStagePlan& s = plan.stages[i];
      EXPECT_EQ(s.layer, layers[i]);
      EXPECT_EQ(s.kind, i < 2 ? "conv" : "ip");
      EXPECT_EQ(s.word_bits, bits);
      EXPECT_EQ(s.tier, tier) << cfg.label() << " stage " << i;
      EXPECT_TRUE(s.fallback.empty()) << s.fallback;
      EXPECT_GT(s.acc_bits, bits);
      EXPECT_EQ(s.fused_relu, i == 2);  // only ip(5) is followed by a ReLU
      // Small nets keep every int8 accumulator far inside int32.
      EXPECT_EQ(s.epilogue, bits == 8 ? IntEpilogueWidth::kI32
                                      : IntEpilogueWidth::kI64)
          << cfg.label() << " stage " << i;
    }
  }
}

// A -32768 weight word takes the stated exact fallback for its stage
// only, and the net still matches the NFU oracle word for word at every
// level.
TEST(IntInferenceOracle, MinWordWeightFallsBackExactlyAndMatchesNfu) {
  auto net = lenet_scale_cnn();
  // conv1's largest |w| is exactly 0.5 and negative: its 16-bit format
  // gets 16 fraction bits and encodes -0.5 as -32768.
  Tensor& w = net->layer(0).params()[0]->value;
  for (std::int64_t i = 0; i < w.count(); ++i)
    w[i] = std::clamp(w[i], -0.25f, 0.25f);
  w[0] = -0.5f;
  PrecisionConfig cfg = fixed_config(16, 16);
  cfg.calibration = CalibrationRule::kMaxAbs;
  QuantizedNetwork qnet(*net, cfg);
  qnet.calibrate(cnn_input(4, 5));
  const hw::NfuSimulator sim(*net, qnet, Shape{1, 1, 12, 12});
  qnet.freeze_inference();
  ASSERT_TRUE(qnet.native_int_active());

  const IntPathPlan& plan = qnet.int_engine()->plan();
  ASSERT_EQ(plan.stages.size(), 4u);
  EXPECT_EQ(plan.stages[0].tier, IntTier::kExact64);
  EXPECT_NE(plan.stages[0].fallback.find("-32768"), std::string::npos);
  for (std::size_t i = 1; i < plan.stages.size(); ++i)
    EXPECT_EQ(plan.stages[i].tier, IntTier::kMadd16Blocked) << i;

  const Tensor x = cnn_input(3, 9);
  const Tensor oracle = sim.forward(x);
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!simd_supports(level)) continue;
    ScopedSimdLevel force(level);
    const Tensor got = qnet.forward(x);
    ASSERT_EQ(got.count(), oracle.count());
    for (std::int64_t i = 0; i < got.count(); ++i)
      ASSERT_EQ(got[i], oracle[i]) << simd_level_name(level) << " elem " << i;
  }
}

// Native binary (+-1 sign-mux words, the scaled double epilogue)
// against the NFU oracle word for word: the five zoo nets at reduced
// channel scale, both scale modes, every SIMD level, 1 and 4 threads.
// Every stage proves its whole K in int32 and finishes in the int32
// lanes; the nets cover conv with a fused ReLU and inner products with
// a per-column bias.
TEST(IntInferenceOracle, BinaryZooMatchesNfuWordForWord) {
  ThreadGuard guard;
  bool conv_relu = false, ip = false;
  for (const char* name : {"lenet", "convnet", "alex", "alex+", "alex++"}) {
    nn::ZooConfig zc;
    zc.channel_scale = 0.125;
    zc.init_seed = 21;
    const Shape sample = nn::input_shape_for(name);
    Tensor calib(Shape{4, sample[1], sample[2], sample[3]});
    Tensor x(Shape{2, sample[1], sample[2], sample[3]});
    Rng rng(23);
    calib.fill_uniform(rng, 0, 1);
    x.fill_uniform(rng, -0.5, 1.5);
    for (BinaryScaleMode mode :
         {BinaryScaleMode::kPlusMinusOne, BinaryScaleMode::kMeanAbs}) {
      SCOPED_TRACE(std::string(name) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      auto net = nn::make_network(name, zc);
      net->set_training_mode(false);
      QuantizedNetwork qnet(*net, binary_config(16, mode));
      qnet.calibrate(calib);
      qnet.freeze_inference();
      const hw::NfuSimulator sim(*net, qnet, sample);
      ASSERT_TRUE(qnet.native_int_active());
      EXPECT_FALSE(qnet.int_engine()->uses_int8());

      for (const IntStagePlan& st : qnet.int_engine()->plan().stages) {
        EXPECT_EQ(st.tier, IntTier::kMadd16Blocked) << st.layer;
        EXPECT_EQ(st.epilogue, IntEpilogueWidth::kI32) << st.layer;
        EXPECT_GT(st.k_block, 0) << st.layer;
        conv_relu = conv_relu || (st.kind == "conv" && st.fused_relu);
        ip = ip || st.kind == "ip";
      }

      const RawTensor want = sim.forward_raw(x);
      for (int threads : {1, 4}) {
        ThreadPool::set_global_threads(threads);
        for (SimdLevel level : supported_levels()) {
          ScopedSimdLevel force(level);
          const RawTensor got = qnet.int_engine()->forward_raw(x);
          EXPECT_EQ(got.raw, want.raw)
              << threads << " threads, " << simd_level_name(level);
        }
      }
    }
  }
  EXPECT_TRUE(conv_relu);
  EXPECT_TRUE(ip);
}

// int_gemm.calls / int_gemm.macs count one GEMM per conv / inner-product
// stage forward at the real K: a batch-4 frozen LeNet forward adds 4 x
// the layers' described MACs, fixed8 (int8 body) and binary (int16).
TEST(IntInference, GemmCountersCountRealMacsOncePerStage) {
  const auto counter = [](const char* name) {
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const obs::MetricSnapshot* m = snap.find(name);
    return m != nullptr ? m->value : std::int64_t{0};
  };
  const Shape sample = nn::input_shape_for("lenet");
  for (const PrecisionConfig& cfg : {fixed_config(8, 8), binary_config(16)}) {
    SCOPED_TRACE(cfg.label());
    nn::ZooConfig zc;
    zc.channel_scale = 0.5;
    auto net = nn::make_network("lenet", zc);
    net->set_training_mode(false);
    std::int64_t want_macs = 0, want_calls = 0;
    for (const nn::LayerDesc& d : net->describe(sample)) {
      if (d.kind != "conv" && d.kind != "inner_product") continue;
      want_macs += 4 * d.macs;
      ++want_calls;
    }
    Tensor x(Shape{4, sample[1], sample[2], sample[3]});
    Rng rng(31);
    x.fill_uniform(rng, 0, 1);
    QuantizedNetwork qnet(*net, cfg);
    qnet.calibrate(x);
    qnet.freeze_inference();
    ASSERT_TRUE(qnet.native_int_active());
    const std::int64_t calls0 = counter("int_gemm.calls");
    const std::int64_t macs0 = counter("int_gemm.macs");
    qnet.int_engine()->forward_raw(x);
    EXPECT_EQ(counter("int_gemm.calls") - calls0, want_calls);
    EXPECT_EQ(counter("int_gemm.macs") - macs0, want_macs);
  }
}

// The fused epilogue is shift_raw_rounded + saturate, then the ReLU's
// max(., 0) + shift_raw_rounded + saturate, for both shift directions.
// A k = 1 job with B = 1 makes the accumulator the A word itself.
TEST(IntTiles, FusedEpilogueMatchesShiftRoundSaturate) {
  std::vector<std::int16_t> a;
  for (int v = -32768; v <= 32767; v += 997) a.push_back(static_cast<std::int16_t>(v));
  a.push_back(-32768);
  a.push_back(32767);
  const std::int64_t m = static_cast<std::int64_t>(a.size());
  const std::int64_t n = 3;
  const std::vector<std::int64_t> col_add = {0, 12345, -777};
  const std::vector<std::int16_t> ones(static_cast<std::size_t>(n), 1);
  std::vector<std::int16_t> pa(static_cast<std::size_t>(m * int_row_words<std::int16_t>(1)));
  std::vector<std::int16_t> pb(static_cast<std::size_t>(int_panel_words<std::int16_t>(1)));
  pack_int_rows<std::int16_t>(m, 1, a.data(), 1, false, pa.data());
  pack_int_panels<std::int16_t>(n, 1, ones.data(), 1, false, pb.data());
  const FixedPointFormat mid(8, 2), relu_out(6, 3);
  for (int from : {-3, 0, 2, 9}) {
    for (bool relu : {false, true}) {
      IntTileJob job;
      job.body = IntBody::kS16;
      job.m = m;
      job.n = n;
      job.groups = 1;
      job.a = pa.data();
      job.b = pb.data();
      job.epi.col_add = col_add.data();
      job.epi.requant = IntRequant{from - mid.frac_bits(), mid.raw_min(), mid.raw_max()};
      job.epi.relu = relu;
      job.epi.relu_requant = IntRequant{mid.frac_bits() - relu_out.frac_bits(),
                                        relu_out.raw_min(), relu_out.raw_max()};
      job.epi.out_bytes = 8;
      job.epi.ldo = n;
      for (SimdLevel level :
           {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
        if (!simd_supports(level)) continue;
        std::vector<std::int64_t> out(static_cast<std::size_t>(m * n), -1);
        job.epi.out = out.data();
        int_tiles(level, job);
        for (std::int64_t i = 0; i < m; ++i)
          for (std::int64_t j = 0; j < n; ++j) {
            const std::int64_t acc = a[static_cast<std::size_t>(i)] +
                                     col_add[static_cast<std::size_t>(j)];
            std::int64_t want = std::clamp(
                shift_raw_rounded(acc, from, mid.frac_bits()), mid.raw_min(),
                mid.raw_max());
            if (relu)
              want = std::clamp(shift_raw_rounded(std::max<std::int64_t>(want, 0),
                                                  mid.frac_bits(),
                                                  relu_out.frac_bits()),
                                relu_out.raw_min(), relu_out.raw_max());
            ASSERT_EQ(out[static_cast<std::size_t>(i * n + j)], want)
                << simd_level_name(level) << " from=" << from
                << " relu=" << relu << " acc=" << acc;
          }
      }
    }
  }
}

// The scaled (binary) epilogue by hand: (acc * scale + add) * post *
// grid, clamped and rounded half away from zero, on one-word jobs
// (B = 1, so the accumulator is the A word), through the int32
// register epilogue, the int64 one and the int32 blocks at every level.
TEST(IntTiles, ScaledEpilogueRoundsTiesAwayAndSaturates) {
  struct Case {
    double scale, grid;
    std::int16_t acc;
    std::int64_t add;
    std::int64_t want;
  };
  const double below_one = 1.0 - std::ldexp(1.0, -53);
  const std::vector<Case> cases = {
      // Exact .5 ties of both signs round away from zero.
      {0.5, 1, 1, 0, 1},
      {0.5, 1, -1, 0, -1},
      {0.5, 1, 5, 0, 3},
      {0.5, 1, -5, 0, -3},
      {0.5, 1, 3, -1, 1},    // 1.5 - 1
      {0.5, 1, -3, 1, -1},   // -1.5 + 1
      {0.5, 1, 253, 0, 127},   // 126.5: the last word below raw_max
      {0.5, 1, -255, 0, -128},  // -127.5: the last word above raw_min
      // Saturation at raw_max and raw_min, also after a tie.
      {0.5, 1, 255, 0, 127},     // 127.5 rounds to 128, saturates
      {0.5, 1, -257, 0, -128},   // -128.5
      {0.5, 1, 1000, 0, 127},
      {0.5, 1, -1000, 0, -128},
      {1, 4, 32767, 0, 127},
      {1, 4, -32768, 0, -128},
      // The bias is added after the scale, and the grid scales both.
      {0.25, 2, 6, 3, 9},     // (1.5 + 3) * 2
      {0.25, 2, -7, 0, -4},   // -3.5 rounds away
      // The product rounds on its own: 3 * (1 - 2^-53) rounds to
      // 3 - 2^-51, so x = -2^-51 * 2^53 = -4. A fused multiply-add
      // would keep 3 - 3 * 2^-53 and give -3.
      {below_one, std::ldexp(1.0, 53), 3, -3, -4},
  };
  const IntRequant out{0, -128, 127};
  for (const Case& c : cases) {
    for (bool relu : {false, true}) {
      for (bool by_row : {false, true}) {
        // k = 3: two K groups, so a one-pair block widens twice.
        const std::vector<std::int16_t> a = {c.acc, 0, 0};
        const std::vector<std::int16_t> b = {1, 0, 0};
        std::vector<std::int16_t> pa(
            static_cast<std::size_t>(int_row_words<std::int16_t>(3)));
        std::vector<std::int16_t> pb(
            static_cast<std::size_t>(int_panel_words<std::int16_t>(3)));
        pack_int_rows<std::int16_t>(1, 3, a.data(), 3, false, pa.data());
        pack_int_panels<std::int16_t>(1, 3, b.data(), 3, false, pb.data());
        IntTileJob job;
        job.body = IntBody::kS16;
        job.m = 1;
        job.n = 1;
        job.groups = int_groups<std::int16_t>(3);
        job.a = pa.data();
        job.b = pb.data();
        (by_row ? job.epi.row_add : job.epi.col_add) = &c.add;
        job.epi.requant = out;
        job.epi.scaled = IntScaledRequant{true, c.scale, 1.0, c.grid};
        job.epi.relu = relu;
        job.epi.relu_requant = out;
        job.epi.ldo = 1;
        job.epi.out_bytes = 2;
        const std::int64_t want = relu ? std::max<std::int64_t>(c.want, 0)
                                       : c.want;
        for (SimdLevel level : supported_levels()) {
          for (const auto& [k_block, i32] :
               {std::pair<std::int64_t, bool>{2, true}, {2, false},
                {1, false}}) {
            if (i32 && level == SimdLevel::kScalar) continue;
            std::int16_t got = 99;
            job.k_block = k_block;
            job.epi.i32 = i32;
            job.epi.out = &got;
            int_tiles(level, job);
            EXPECT_EQ(got, want)
                << simd_level_name(level) << " acc=" << c.acc
                << " add=" << c.add << " scale=" << c.scale
                << " relu=" << relu << " k_block=" << k_block
                << " i32=" << i32;
          }
        }
      }
    }
  }
}

// The int16 tiles against the scalar int64 tier at K = block edges +-1.
// Every aligned block of the weights sums |w| to exactly 65535 (65534
// for one pair: two 32767 words), so with A = -32768 the int32 lanes
// reach 2^31 - 2^15 at each block's end: one pair more per block would
// overflow them.
TEST(IntTiles, Int16BlocksMatchScalarAtBlockEdges) {
  const std::int64_t m = 5, n = 19;
  for (std::int64_t block : {1, 3, 4}) {
    for (std::int64_t k :
         {2 * block - 1, 2 * block, 2 * block + 1, 4 * block - 1,
          4 * block, 4 * block + 1, 6 * block + 1}) {
      SCOPED_TRACE("block=" + std::to_string(block) +
                   " k=" + std::to_string(k));
      // Weights: per aligned block of `block` pairs, |w| sums to the
      // target (all negative in column 0); the words of one block are
      // nearly equal.
      const std::int64_t len = 2 * block;
      const std::int64_t target = std::min<std::int64_t>(65535, len * 32767);
      std::vector<std::int16_t> w(static_cast<std::size_t>(n * k));
      std::mt19937_64 rng(static_cast<std::uint64_t>(block * 100 + k));
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t q0 = 0; q0 < k; q0 += len) {
          for (std::int64_t p = 0; p < len && q0 + p < k; ++p) {
            const std::int64_t mag =
                target / len + (p < target % len ? 1 : 0);
            const bool neg = j == 0 || rng() % 2 == 0;
            w[static_cast<std::size_t>(j * k + q0 + p)] =
                static_cast<std::int16_t>(neg ? -mag : mag);
          }
        }
      ASSERT_EQ(int32_block_pairs(n, k, w.data(), 32768),
                std::min(block, (k + 1) / 2));
      // Activations: row 0 all -32768, the rest extreme words.
      std::vector<std::int16_t> a(static_cast<std::size_t>(m * k));
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t p = 0; p < k; ++p)
          a[static_cast<std::size_t>(i * k + p)] =
              i == 0 || rng() % 3 == 0
                  ? std::int16_t{-32768}
                  : static_cast<std::int16_t>(rng() % 2 == 0 ? 32767
                                                             : -32767);
      std::vector<std::int64_t> naive(static_cast<std::size_t>(m * n), 0);
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
          for (std::int64_t p = 0; p < k; ++p)
            naive[static_cast<std::size_t>(i * n + j)] +=
                std::int64_t{a[static_cast<std::size_t>(i * k + p)]} *
                w[static_cast<std::size_t>(j * k + p)];
      std::vector<std::int16_t> pa(
          static_cast<std::size_t>(m * int_row_words<std::int16_t>(k)));
      std::vector<std::int16_t> pb(static_cast<std::size_t>(
          int_panels(n) * int_panel_words<std::int16_t>(k)));
      pack_int_rows<std::int16_t>(m, k, a.data(), k, false, pa.data());
      pack_int_panels<std::int16_t>(n, k, w.data(), k, false, pb.data());
      IntTileJob job;
      job.body = IntBody::kS16;
      job.m = m;
      job.n = n;
      job.groups = int_groups<std::int16_t>(k);
      job.k_block = block;
      job.a = pa.data();
      job.b = pb.data();
      job.epi.ldo = n;
      for (SimdLevel level : supported_levels()) {
        std::vector<std::int64_t> got(static_cast<std::size_t>(m * n), -1);
        job.epi.out = got.data();
        int_tiles(level, job);
        EXPECT_EQ(got, naive) << simd_level_name(level);
      }
      // Row 0 x column 0 fills the first block's int32 lanes to the
      // edge.
      if (k >= 2 * block) {
        std::int64_t first = 0;
        for (std::int64_t p = 0; p < 2 * block; ++p)
          first += std::int64_t{a[static_cast<std::size_t>(p)]} *
                   w[static_cast<std::size_t>(p)];
        EXPECT_EQ(first, std::int64_t{32768} * target);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Eligibility: an eligible config always freezes onto the native path.

TEST(IntInference, FakeQuantForwardTracksFrozenNative) {
  auto net = lenet_scale_cnn();
  const Tensor calib = cnn_input(4, 5);
  QuantizedNetwork qnet(*net, fixed_config(8, 8));
  qnet.calibrate(calib);

  // Unfrozen: every forward fake-quantizes on the float path.
  const Tensor x = cnn_input(2, 9);
  const Tensor float_path = qnet.forward(x);

  qnet.freeze_inference();
  EXPECT_TRUE(qnet.native_int_active());
  const Tensor int_path = qnet.forward(x);

  // Same grid, same calibration: the two paths agree to within one
  // final-grid step (float32 accumulation rounding; cf. nfu_sim_test).
  const auto& fq = dynamic_cast<const FixedQuantizer&>(
      qnet.data_quantizer(qnet.num_sites() - 1));
  const double step = fq.format()->step();
  for (std::int64_t i = 0; i < int_path.count(); ++i)
    EXPECT_NEAR(float_path[i], int_path[i], step + 1e-9) << "elem " << i;
}

// freeze_inference computes the fallback reason once and keeps it: a
// zoo net's float and pow2 configs say why they run fake-quant, a
// fixed8 config runs native with an empty reason, and thawing clears it.
TEST(IntInference, FreezeKeepsTheFallbackReason) {
  struct Case {
    PrecisionConfig config;
    std::string reason;
  };
  const Case cases[] = {
      {float_config(), "float config: no integer realization"},
      {pow2_config(),
       "power-of-two weights: no native tier (used exponent span exceeds "
       "the int16 word)"},
      {fixed_config(8, 8), ""},
  };
  std::vector<std::int64_t> dims = nn::input_shape_for("lenet").dims();
  dims[0] = 4;
  Tensor calib{Shape{dims}};
  Rng rng(5);
  calib.fill_uniform(rng, 0.0f, 1.0f);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.config.id());
    auto net = nn::make_network("lenet", {0.5, 3});
    QuantizedNetwork qnet(*net, c.config);
    qnet.calibrate(calib);
    EXPECT_EQ(qnet.fallback_reason(), "");
    qnet.freeze_inference();
    EXPECT_EQ(qnet.fallback_reason(), c.reason);
    EXPECT_EQ(qnet.native_int_active(), c.reason.empty());
    qnet.thaw_inference();
    EXPECT_EQ(qnet.fallback_reason(), "");
  }
}

TEST(IntInference, IneligibleConfigsFallBackToFloatPath) {
  const Tensor calib = cnn_input(4, 5);
  {
    // Float config: no integer realization.
    auto net = lenet_scale_cnn();
    QuantizedNetwork qnet(*net, float_config());
    qnet.freeze_inference();
    EXPECT_FALSE(qnet.native_int_active());
  }
  {
    // 24-bit weights exceed the 16-bit native word.
    auto net = lenet_scale_cnn();
    QuantizedNetwork qnet(*net, fixed_config(24, 16));
    qnet.calibrate(calib);
    EXPECT_NE(IntInferenceEngine::ineligibility_reason(*net, qnet), "");
    qnet.freeze_inference();
    EXPECT_FALSE(qnet.native_int_active());
    // Frozen float path still serves forwards.
    EXPECT_EQ(qnet.forward(cnn_input(1, 9)).count(), 10);
  }
  {
    // Stochastic rounding is nondeterministic: float path only.
    auto net = lenet_scale_cnn();
    PrecisionConfig cfg = fixed_config(8, 8);
    cfg.rounding = Rounding::kStochastic;
    QuantizedNetwork qnet(*net, cfg);
    qnet.calibrate(calib);
    EXPECT_NE(IntInferenceEngine::ineligibility_reason(*net, qnet), "");
    qnet.freeze_inference();
    EXPECT_FALSE(qnet.native_int_active());
  }
  {
    // Eligible config reports an empty reason.
    auto net = lenet_scale_cnn();
    QuantizedNetwork qnet(*net, fixed_config(8, 8));
    qnet.calibrate(calib);
    EXPECT_EQ(IntInferenceEngine::ineligibility_reason(*net, qnet), "");
  }
  for (BinaryScaleMode mode :
       {BinaryScaleMode::kPlusMinusOne, BinaryScaleMode::kMeanAbs}) {
    // Binary weights are sign-mux words on the int16 body; the biases
    // keep their calibrated fixed-point formats.
    auto net = lenet_scale_cnn();
    QuantizedNetwork qnet(*net, binary_config(16, mode));
    qnet.calibrate(calib);
    EXPECT_EQ(IntInferenceEngine::ineligibility_reason(*net, qnet), "");
    qnet.freeze_inference();
    EXPECT_TRUE(qnet.native_int_active());
    EXPECT_FALSE(qnet.int_engine()->uses_int8());
  }
  {
    // Binary still needs round-half-away data rounding.
    auto net = lenet_scale_cnn();
    PrecisionConfig cfg = binary_config(16);
    cfg.rounding = Rounding::kFloor;
    QuantizedNetwork qnet(*net, cfg);
    qnet.calibrate(calib);
    EXPECT_NE(IntInferenceEngine::ineligibility_reason(*net, qnet)
                  .find("rounding"),
              std::string::npos);
  }
  {
    // Power-of-two weights have no native tier, and say why.
    auto net = lenet_scale_cnn();
    QuantizedNetwork qnet(*net, pow2_config(6, 16));
    qnet.calibrate(calib);
    const std::string reason =
        IntInferenceEngine::ineligibility_reason(*net, qnet);
    EXPECT_NE(reason.find("power-of-two"), std::string::npos) << reason;
    EXPECT_NE(reason.find("int16"), std::string::npos) << reason;
    qnet.freeze_inference();
    EXPECT_FALSE(qnet.native_int_active());
  }
}

// The integer requant rounds half away from zero. Freezing a config
// with any other deterministic rounding mode must keep the fake-quant
// path, so freezing never changes an output.
TEST(IntInferenceDispatch, NonNearestRoundingStaysOnFakeQuant) {
  nn::ZooConfig zc;
  zc.channel_scale = 0.5;
  zc.init_seed = 7;
  Tensor x(Shape{16, 1, 28, 28});
  Rng rng(7);
  x.fill_uniform(rng, 0, 1);
  for (Rounding mode :
       {Rounding::kNearest, Rounding::kNearestEven, Rounding::kFloor}) {
    auto net = nn::make_lenet(zc);
    net->set_training_mode(false);
    PrecisionConfig cfg = fixed_config(8, 8);
    cfg.rounding = mode;
    QuantizedNetwork qnet(*net, cfg);
    qnet.calibrate(x);
    const Tensor unfrozen = qnet.forward(x);
    qnet.restore_masters();
    EXPECT_EQ(IntInferenceEngine::ineligibility_reason(*net, qnet).empty(),
              mode == Rounding::kNearest);
    qnet.freeze_inference();
    EXPECT_EQ(qnet.native_int_active(), mode == Rounding::kNearest);
    const Tensor frozen = qnet.forward(x);
    ASSERT_EQ(frozen.count(), unfrozen.count());
    for (std::int64_t i = 0; i < frozen.count(); ++i)
      ASSERT_EQ(frozen[i], unfrozen[i])
          << "rounding " << static_cast<int>(mode) << " elem " << i;
  }
}

TEST(IntInference, ThawDropsEngineAndRestoresTraining) {
  auto net = lenet_scale_cnn();
  QuantizedNetwork qnet(*net, fixed_config(8, 8));
  qnet.calibrate(cnn_input(4, 5));
  qnet.freeze_inference();
  ASSERT_TRUE(qnet.native_int_active());
  qnet.thaw_inference();
  EXPECT_FALSE(qnet.native_int_active());
  EXPECT_FALSE(qnet.inference_frozen());
}

// Fault-injection hooks must bypass the native path: the hooks contract
// exposes float-domain sites/params the integer engine does not have.
TEST(IntInference, ForwardHooksBypassNativePath) {
  auto net = lenet_scale_cnn();
  QuantizedNetwork qnet(*net, fixed_config(8, 8));
  qnet.calibrate(cnn_input(4, 5));
  qnet.freeze_inference();
  ASSERT_TRUE(qnet.native_int_active());

  int site_calls = 0;
  ForwardHooks hooks;
  hooks.on_quantized_site = [&](std::size_t, Tensor&) { ++site_calls; };
  qnet.set_forward_hooks(std::move(hooks));
  (void)qnet.forward(cnn_input(1, 9));
  EXPECT_GT(site_calls, 0);  // float path ran, hooks fired

  qnet.clear_forward_hooks();
  site_calls = 0;
  (void)qnet.forward(cnn_input(1, 9));
  EXPECT_EQ(site_calls, 0);  // native path again
}

}  // namespace
}  // namespace qnn::quant
