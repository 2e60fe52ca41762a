// MSE calibration (quant/quantizer.h fixed_candidate_mse and
// pow2_candidate_mse, FixedQuantizer/Pow2Quantizer::
// calibrate_with_samples) pinned at every SIMD level this CPU supports:
// every candidate's MSE bits and the chosen format against an in-test
// copy of the per-candidate loop the one-pass scorer replaced, with its
// sum fused. Fixed at 2-32 bits (across the 24/25 lane boundary and both
// ends of the lane kernels' frac range), pow2 at 2-16 bits (both ends of
// the exponent range); all-zero samples, values on the grid, ±½-step
// ties, NaN, ±Inf, subnormals; max_abs of 0, NaN, Inf and 1e-45; sizes
// 0, 1, 15, 16, 17, 4096 and 8191. Also Tensor::max_abs against the
// serial chain, and the describe() of every quantizer that
// QuantizedNetwork::calibrate picks on the five zoo nets.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "fixed/fixed_format.h"
#include "fixed/pow2_format.h"
#include "nn/zoo.h"
#include "quant/qnetwork.h"
#include "quant/quantizer.h"
#include "tensor/microkernel.h"

namespace qnn::quant {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::vector<SimdLevel> all_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_supports(level)) levels.push_back(level);
  return levels;
}

// The per-candidate loop the one-pass scorer replaced, its sum fused.
template <typename Format>
double reference_mse(std::span<const float> samples, const Format& q) {
  double mse = 0.0;
  for (float v : samples) {
    const double e =
        static_cast<double>(v) - q.quantize(static_cast<double>(v));
    mse = std::fma(e, e, mse);
  }
  return samples.empty() ? 0.0 : mse / static_cast<double>(samples.size());
}

// The replaced calibrate_with_samples' choice among candidates of the
// given MSE: the first of least MSE, from an infinite best.
template <std::size_t kN>
int reference_choice(const std::array<double, kN>& mse) {
  double best_mse = std::numeric_limits<double>::infinity();
  int best = 0;
  for (std::size_t c = 0; c < kN; ++c) {
    if (mse[c] < best_mse) {
      best_mse = mse[c];
      best = static_cast<int>(c);
    }
  }
  return best;
}

// Equal bits, or both NaN (a NaN's payload is not part of the contract).
void expect_same_mse(double got, double want, const std::string& what) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what << " got " << got;
    return;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << " got " << got << " want " << want;
}

const std::size_t kSizes[] = {0, 1, 15, 16, 17, 4096, 8191};

// `n` samples of magnitude about `scale`: a heavy-tailed spread with -0,
// float subnormals, values exactly on the grids of steps `steps` and
// ±½-step ties on them. `special` (NaN or ±Inf), when not 0, replaces
// one sample.
std::vector<float> mixed_samples(std::size_t n, double scale,
                                 const std::vector<double>& steps,
                                 float special, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, scale / 3);
  // Kept inside the float range.
  const auto to_float = [](double v) {
    return static_cast<float>(std::clamp(v, -3e38, 3e38));
  };
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double step = steps[rng() % steps.size()];
    const double k = static_cast<double>(static_cast<int>(rng() % 64)) - 32;
    switch (rng() % 8) {
      case 0: x[i] = to_float(k * step); break;
      case 1: x[i] = to_float((k + 0.5) * step); break;
      case 2: x[i] = to_float(normal(rng) * 8); break;  // tail
      case 3: x[i] = i % 2 ? -0.0f : 1e-40f; break;
      default: x[i] = to_float(normal(rng));
    }
  }
  if (special != 0.0f && n > 0) x[(n * 5) / 7] = special;
  return x;
}

// The candidates' MSE and the chosen fixed format at every level.
void expect_fixed(std::span<const float> samples, int bits, double max_abs,
                  const std::string& what) {
  const int frac0 = FixedPointFormat::for_range(bits, max_abs).frac_bits();
  std::array<double, kFixedCandidates> want{};
  for (int c = 0; c < kFixedCandidates; ++c)
    want[c] = reference_mse(samples, FixedPointFormat(bits, frac0 + c));
  const int want_frac = frac0 + (samples.empty() ? 0 : reference_choice(want));
  for (SimdLevel level : all_levels()) {
    const std::string at = what + " bits=" + std::to_string(bits) +
                           " frac0=" + std::to_string(frac0) +
                           " n=" + std::to_string(samples.size()) + " at " +
                           simd_level_name(level);
    const auto mse = fixed_candidate_mse(samples, bits, frac0, level);
    for (int c = 0; c < kFixedCandidates; ++c)
      expect_same_mse(mse[c], want[c], at + " candidate " + std::to_string(c));
    ScopedSimdLevel scoped(level);
    FixedQuantizer q(bits);
    q.calibrate_with_samples(samples, max_abs);
    EXPECT_EQ(q.format()->frac_bits(), want_frac) << at;
  }
}

void expect_pow2(std::span<const float> samples, int bits, double max_abs,
                 const std::string& what) {
  const int exp_max0 = Pow2Format::for_range(bits, max_abs).exp_max();
  std::array<double, kPow2Candidates> want{};
  for (int c = 0; c < kPow2Candidates; ++c)
    want[c] = reference_mse(samples, Pow2Format(bits, exp_max0 - c));
  const int want_exp_max =
      exp_max0 - (samples.empty() ? 0 : reference_choice(want));
  for (SimdLevel level : all_levels()) {
    const std::string at = what + " bits=" + std::to_string(bits) +
                           " exp_max0=" + std::to_string(exp_max0) +
                           " n=" + std::to_string(samples.size()) + " at " +
                           simd_level_name(level);
    const auto mse = pow2_candidate_mse(samples, bits, exp_max0, level);
    for (int c = 0; c < kPow2Candidates; ++c)
      expect_same_mse(mse[c], want[c], at + " candidate " + std::to_string(c));
    ScopedSimdLevel scoped(level);
    Pow2Quantizer q(bits);
    q.calibrate_with_samples(samples, max_abs);
    EXPECT_EQ(q.format()->exp_max(), want_exp_max) << at;
  }
}

TEST(Calibration, FixedScoresMatchPerCandidateLoop) {
  for (int bits = 2; bits <= 32; ++bits) {
    for (std::size_t n : kSizes) {
      for (double scale : {0.37, 3000.0}) {
        const int frac0 = FixedPointFormat::for_range(bits, scale).frac_bits();
        std::vector<double> steps;
        for (int c = 0; c < kFixedCandidates; ++c)
          steps.push_back(std::ldexp(1.0, -(frac0 + c)));
        const auto x = mixed_samples(n, scale, steps, 0.0f, bits * 100 + n);
        // Covering, and clipping the top of the spread.
        expect_fixed(x, bits, scale, "mixed");
        expect_fixed(x, bits, scale / 16, "mixed clipped");
      }
    }
  }
}

TEST(Calibration, FixedAllZeroSamplesKeepTheFirstCandidate) {
  for (int bits : {2, 8, 24, 25, 32}) {
    for (std::size_t n : kSizes) {
      std::vector<float> x(n, 0.0f);
      for (std::size_t i = 0; i < n; i += 3) x[i] = -0.0f;
      expect_fixed(x, bits, 0.0, "zeros");
      expect_fixed(x, bits, 1.5, "zeros");
      FixedQuantizer q(bits);
      q.calibrate_with_samples(x, 1.5);
      EXPECT_EQ(q.format()->frac_bits(),
                FixedPointFormat::for_range(bits, 1.5).frac_bits());
    }
  }
}

TEST(Calibration, FixedSpecialSamplesAndRanges) {
  const float specials[] = {kNaN, kInf, -kInf};
  for (int bits : {2, 4, 8, 16, 24, 25, 31, 32}) {
    for (std::size_t n : kSizes) {
      const std::vector<double> steps = {std::ldexp(1.0, -(bits - 2)),
                                         std::ldexp(1.0, -(bits + 1))};
      for (float special : specials)
        expect_fixed(mixed_samples(n, 1.0, steps, special, n + 7), bits, 1.0,
                     "special");
      const auto x = mixed_samples(n, 1.0, steps, 0.0f, n + 11);
      // max_abs of 0, NaN and Inf covers with frac = bits - 1; 1e-45
      // puts frac0 past 126 (the reference loop runs).
      for (double max_abs :
           {0.0, std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::infinity(), 1e-45})
        expect_fixed(x, bits, max_abs, "max_abs " + std::to_string(max_abs));
    }
  }
}

TEST(Calibration, FixedEdgesOfTheLaneRange) {
  // frac0 + 8 = 126 is the last all-lane range and frac0 = -126 the
  // first; one past either runs the reference loop.
  for (int bits : {2, 16, 24, 25, 32}) {
    for (int frac0 : {118, 119, -126, -127}) {
      const double max_abs = std::ldexp(1.0, bits - 1 - frac0);
      ASSERT_EQ(FixedPointFormat::for_range(bits, max_abs).frac_bits(), frac0);
      for (std::size_t n : {std::size_t{17}, std::size_t{4096}}) {
        std::vector<double> steps;
        for (int c = 0; c < kFixedCandidates; ++c)
          steps.push_back(std::ldexp(1.0, -(frac0 + c)));
        // Magnitudes near the range (clamped into float).
        const double scale = std::min(max_abs, 1e38);
        const auto x = mixed_samples(n, scale, steps, 0.0f, n + frac0 + 400);
        expect_fixed(x, bits, max_abs, "edge");
      }
    }
  }
}

TEST(Calibration, Pow2ScoresMatchPerCandidateLoop) {
  // No special, NaN, Inf, -Inf, no special, ... across the cases.
  const float specials[] = {0.0f, kNaN, kInf, -kInf, 0.0f};
  std::vector<double> steps;
  for (int e = -40; e <= 8; ++e) steps.push_back(std::ldexp(1.0, e));
  int k = 0;
  for (int bits = 2; bits <= 16; ++bits) {
    for (std::size_t n : kSizes) {
      for (double scale : {0.02, 40.0}) {
        const auto x = mixed_samples(n, scale, steps, specials[k++ % 5],
                                     bits * 1000 + n);
        expect_pow2(x, bits, scale, "mixed");
        expect_pow2(x, bits, scale / 8, "mixed clipped");
      }
    }
  }
}

TEST(Calibration, Pow2ZerosSubnormalsAndRanges) {
  for (int bits : {2, 6, 7, 8, 16}) {
    for (std::size_t n : kSizes) {
      // All zero: ties keep the covering exponent.
      std::vector<float> zeros(n, 0.0f);
      expect_pow2(zeros, bits, 0.5, "zeros");
      // Subnormals and the smallest normals around the zero threshold
      // of exp_min = -126.
      std::vector<float> tiny(n);
      for (std::size_t i = 0; i < n; ++i)
        tiny[i] = std::bit_cast<float>(static_cast<std::uint32_t>(
                      (i * 0x9e3779b9u) % 0x01800000u)) *
                  (i % 2 ? 1.0f : -1.0f);
      std::vector<double> ranges = {
          0.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), 1e-45};
      // The last candidate's exp_min at -126 (lanes) and -127 (the
      // reference loop).
      const int top = (1 << (bits - 1)) - 124;
      if (top <= 127) {
        ranges.push_back(std::ldexp(1.0, top));
        ranges.push_back(std::ldexp(1.0, top - 1));
      }
      for (double max_abs : ranges) expect_pow2(tiny, bits, max_abs, "tiny");
      // exp_max0 = 127 is the top of the lane range, 128 past it.
      std::vector<double> steps = {std::ldexp(1.0, 120), std::ldexp(1.0, 126)};
      const auto huge = mixed_samples(n, 1e38, steps, kInf, n + 3);
      expect_pow2(huge, bits, std::ldexp(1.0, 127), "exp_max 127");
      expect_pow2(huge, bits, 3e38, "exp_max 128");
    }
  }
}

// ---------------------------------------------------------------------
// Tensor::max_abs: lane maxima, the serial chain's value.

TEST(Calibration, MaxAbsMatchesTheSerialChain) {
  const float specials[] = {kNaN, -kNaN, -0.0f, kInf, -kInf, 1e-45f, -3.5f};
  std::mt19937_64 rng(3);
  for (std::int64_t n = 0; n <= 70; ++n) {
    for (float special : specials) {
      for (std::int64_t at : {std::int64_t{0}, n / 2, n - 1}) {
        Tensor t(Shape{n});
        for (std::int64_t i = 0; i < n; ++i)
          t[i] = static_cast<float>(static_cast<int>(rng() % 200) - 100) / 8;
        if (n > 0) t[at] = special;
        float want = 0.0f;
        for (float v : t.values()) want = std::max(want, std::fabs(v));
        EXPECT_EQ(std::bit_cast<std::uint32_t>(t.max_abs()),
                  std::bit_cast<std::uint32_t>(want))
            << "n=" << n << " special=" << special << " at " << at;
      }
    }
  }
  Tensor nan_only(Shape{20});
  nan_only.fill(kNaN);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(nan_only.max_abs()), 0u);
  Tensor neg_zero(Shape{33});
  neg_zero.fill(-0.0f);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(neg_zero.max_abs()), 0u);
}

// ---------------------------------------------------------------------
// The formats QuantizedNetwork::calibrate picks on the five zoo nets at
// channel scale 1/8, from one batch of two uniform [-1, 1) inputs, at
// the active level (the scorer tests above cover every level).

// Every weight quantizer's describe(), " / ", every data quantizer's; a
// run of k equal ones reads "<describe> xk".
std::string calibrated_formats(const std::string& net_name,
                               const PrecisionConfig& config) {
  auto net = nn::make_network(net_name, {0.125, 5});
  const Shape in = nn::input_shape_for(net_name);
  Tensor batch(Shape{2, in[1], in[2], in[3]});
  Rng rng(9);
  batch.fill_uniform(rng, -1.0f, 1.0f);
  QuantizedNetwork q(*net, config);
  q.calibrate(batch);
  std::vector<std::string> all;
  for (std::size_t i = 0; i < net->trainable_params().size(); ++i)
    all.push_back(q.weight_quantizer(i).describe());
  const std::size_t weights = all.size();
  for (std::size_t s = 0; s < q.num_sites(); ++s)
    all.push_back(q.data_quantizer(s).describe());
  std::string out;
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i + 1;
    while (j < all.size() && j != weights && all[j] == all[i]) ++j;
    if (i > 0) out += i == weights ? " / " : ", ";
    out += all[i];
    if (j - i > 1) out += " x" + std::to_string(j - i);
    i = j;
  }
  return out;
}

struct GoldenFormats {
  const char* net;
  const char* precision;
  const char* policy;
  const char* formats;
};

// Generated by the per-candidate scorer this one replaced.
const GoldenFormats kGolden[] = {
    {"lenet", "fixed16", "layer",
     "Q-1.16 (16b), Q0.15 (16b), Q-1.16 (16b), Q0.15 (16b), "
     "Q-2.17 (16b), Q0.15 (16b), Q-1.16 (16b), "
     "Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x4, Q3.12 (16b) x3"},
    {"lenet", "fixed16", "global",
     "Q-1.16 (16b) x8 / Q3.12 (16b) x8"},
    {"lenet", "fixed8", "layer",
     "Q-1.8 (8b), Q0.7 (8b), Q-1.8 (8b), Q0.7 (8b), Q-2.9 (8b), "
     "Q0.7 (8b), Q-1.8 (8b), Q0.7 (8b) / Q0.7 (8b), Q2.5 (8b) x4, "
     "Q3.4 (8b) x3"},
    {"lenet", "fixed8", "global",
     "Q-1.8 (8b) x8 / Q3.4 (8b) x8"},
    {"lenet", "fixed4", "layer",
     "Q-1.4 (4b), Q0.3 (4b), Q-2.5 (4b), Q0.3 (4b), Q-2.5 (4b), "
     "Q0.3 (4b), Q-1.4 (4b), Q0.3 (4b) / Q0.3 (4b), Q1.2 (4b), "
     "Q2.1 (4b) x3, Q3.0 (4b) x2, Q2.1 (4b)"},
    {"lenet", "fixed4", "global",
     "Q-2.5 (4b) x8 / Q2.1 (4b) x8"},
    {"lenet", "fixed32", "layer",
     "Q-1.32 (32b), Q0.31 (32b), Q-1.32 (32b), Q0.31 (32b), "
     "Q-2.33 (32b), Q0.31 (32b), Q-1.32 (32b), "
     "Q0.31 (32b) / Q0.31 (32b), Q2.29 (32b) x4, Q3.28 (32b) x3"},
    {"lenet", "fixed32", "global",
     "Q-1.32 (32b) x8 / Q3.28 (32b) x8"},
    {"lenet", "pow2", "layer",
     "pow2[6b, 2^-31..2^-1], Q0.15 (16b), pow2[6b, 2^-31..2^-1], "
     "Q0.15 (16b), pow2[6b, 2^-32..2^-2], Q0.15 (16b), pow2[6b, "
     "2^-31..2^-1], Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x4, "
     "Q3.12 (16b) x3"},
    {"lenet", "pow2", "global",
     "pow2[6b, 2^-31..2^-1], Q-1.16 (16b), pow2[6b, 2^-31..2^-1], "
     "Q-1.16 (16b), pow2[6b, 2^-31..2^-1], Q-1.16 (16b), pow2[6b, "
     "2^-31..2^-1], Q-1.16 (16b) / Q3.12 (16b) x8"},
    {"lenet", "binary", "layer",
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], Q0.15 (16b), "
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], "
     "Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x4, Q3.12 (16b) x3"},
    {"lenet", "binary", "global",
     "binary[±mean|w|], Q-1.16 (16b), binary[±mean|w|], Q-1.16 (16b), "
     "binary[±mean|w|], Q-1.16 (16b), binary[±mean|w|], "
     "Q-1.16 (16b) / Q3.12 (16b) x8"},
    {"convnet", "fixed16", "layer",
     "Q-1.16 (16b), Q0.15 (16b), Q-2.17 (16b), Q0.15 (16b), "
     "Q-3.18 (16b), Q0.15 (16b) x3 / Q0.15 (16b), Q2.13 (16b) x3, "
     "Q3.12 (16b) x5"},
    {"convnet", "fixed16", "global",
     "Q0.15 (16b) x8 / Q3.12 (16b) x9"},
    {"convnet", "fixed8", "layer",
     "Q-1.8 (8b), Q0.7 (8b), Q-2.9 (8b), Q0.7 (8b), Q-3.10 (8b), "
     "Q0.7 (8b) x3 / Q0.7 (8b), Q2.5 (8b) x6, Q3.4 (8b) x2"},
    {"convnet", "fixed8", "global",
     "Q0.7 (8b) x8 / Q3.4 (8b) x9"},
    {"convnet", "fixed4", "layer",
     "Q-2.5 (4b), Q0.3 (4b), Q-2.5 (4b), Q0.3 (4b), Q-3.6 (4b), "
     "Q0.3 (4b), Q-1.4 (4b), Q0.3 (4b) / Q0.3 (4b), Q1.2 (4b) x3, "
     "Q2.1 (4b) x3, Q3.0 (4b), Q2.1 (4b)"},
    {"convnet", "fixed4", "global",
     "Q-1.4 (4b) x8 / Q2.1 (4b) x9"},
    {"convnet", "fixed32", "layer",
     "Q-1.32 (32b), Q0.31 (32b), Q-2.33 (32b), Q0.31 (32b), "
     "Q-3.34 (32b), Q0.31 (32b) x3 / Q0.31 (32b), Q2.29 (32b) x3, "
     "Q3.28 (32b) x5"},
    {"convnet", "fixed32", "global",
     "Q0.31 (32b) x8 / Q3.28 (32b) x9"},
    {"convnet", "pow2", "layer",
     "pow2[6b, 2^-31..2^-1], Q0.15 (16b), pow2[6b, 2^-32..2^-2], "
     "Q0.15 (16b), pow2[6b, 2^-33..2^-3], Q0.15 (16b), pow2[6b, "
     "2^-30..2^0], Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, "
     "Q3.12 (16b) x5"},
    {"convnet", "pow2", "global",
     "pow2[6b, 2^-30..2^0], Q0.15 (16b), pow2[6b, 2^-30..2^0], "
     "Q0.15 (16b), pow2[6b, 2^-30..2^0], Q0.15 (16b), pow2[6b, "
     "2^-30..2^0], Q0.15 (16b) / Q3.12 (16b) x9"},
    {"convnet", "binary", "layer",
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], Q0.15 (16b), "
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], "
     "Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, Q3.12 (16b) x5"},
    {"convnet", "binary", "global",
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], Q0.15 (16b), "
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], "
     "Q0.15 (16b) / Q3.12 (16b) x9"},
    {"alex", "fixed16", "layer",
     "Q-1.16 (16b), Q0.15 (16b), Q-2.17 (16b), Q0.15 (16b), "
     "Q-2.17 (16b), Q0.15 (16b), Q-2.17 (16b), "
     "Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, Q3.12 (16b) x2, "
     "Q2.13 (16b), Q3.12 (16b) x2, Q2.13 (16b) x2"},
    {"alex", "fixed16", "global",
     "Q-1.16 (16b) x8 / Q3.12 (16b) x11"},
    {"alex", "fixed8", "layer",
     "Q-1.8 (8b), Q0.7 (8b), Q-2.9 (8b), Q0.7 (8b), Q-2.9 (8b), "
     "Q0.7 (8b), Q-2.9 (8b), Q0.7 (8b) / Q0.7 (8b), Q2.5 (8b) x3, "
     "Q3.4 (8b) x2, Q2.5 (8b), Q3.4 (8b) x2, Q2.5 (8b) x2"},
    {"alex", "fixed8", "global",
     "Q-1.8 (8b) x8 / Q3.4 (8b) x11"},
    {"alex", "fixed4", "layer",
     "Q-2.5 (4b), Q0.3 (4b), Q-2.5 (4b), Q0.3 (4b), Q-2.5 (4b), "
     "Q0.3 (4b), Q-2.5 (4b), Q0.3 (4b) / Q0.3 (4b), Q1.2 (4b), "
     "Q2.1 (4b) x9"},
    {"alex", "fixed4", "global",
     "Q-2.5 (4b) x8 / Q2.1 (4b) x11"},
    {"alex", "fixed32", "layer",
     "Q-1.32 (32b), Q0.31 (32b), Q-2.33 (32b), Q0.31 (32b), "
     "Q-2.33 (32b), Q0.31 (32b), Q-2.33 (32b), "
     "Q0.31 (32b) / Q0.31 (32b), Q2.29 (32b) x3, Q3.28 (32b) x2, "
     "Q2.29 (32b), Q3.28 (32b) x2, Q2.29 (32b) x2"},
    {"alex", "fixed32", "global",
     "Q-1.32 (32b) x8 / Q3.28 (32b) x11"},
    {"alex", "pow2", "layer",
     "pow2[6b, 2^-31..2^-1], Q0.15 (16b), pow2[6b, 2^-32..2^-2], "
     "Q0.15 (16b), pow2[6b, 2^-32..2^-2], Q0.15 (16b), pow2[6b, "
     "2^-32..2^-2], Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, "
     "Q3.12 (16b) x2, Q2.13 (16b), Q3.12 (16b) x2, Q2.13 (16b) x2"},
    {"alex", "pow2", "global",
     "pow2[6b, 2^-31..2^-1], Q-1.16 (16b), pow2[6b, 2^-31..2^-1], "
     "Q-1.16 (16b), pow2[6b, 2^-31..2^-1], Q-1.16 (16b), pow2[6b, "
     "2^-31..2^-1], Q-1.16 (16b) / Q3.12 (16b) x11"},
    {"alex", "binary", "layer",
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], Q0.15 (16b), "
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], "
     "Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, Q3.12 (16b) x2, "
     "Q2.13 (16b), Q3.12 (16b) x2, Q2.13 (16b) x2"},
    {"alex", "binary", "global",
     "binary[±mean|w|], Q-1.16 (16b), binary[±mean|w|], Q-1.16 (16b), "
     "binary[±mean|w|], Q-1.16 (16b), binary[±mean|w|], "
     "Q-1.16 (16b) / Q3.12 (16b) x11"},
    {"alex+", "fixed16", "layer",
     "Q-1.16 (16b), Q0.15 (16b), Q-2.17 (16b), Q0.15 (16b), "
     "Q-2.17 (16b), Q0.15 (16b), Q-2.17 (16b), "
     "Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, Q3.12 (16b) x2, "
     "Q2.13 (16b) x3, Q1.14 (16b), Q0.15 (16b)"},
    {"alex+", "fixed16", "global",
     "Q-1.16 (16b) x8 / Q2.13 (16b) x11"},
    {"alex+", "fixed8", "layer",
     "Q-1.8 (8b), Q0.7 (8b), Q-2.9 (8b), Q0.7 (8b), Q-2.9 (8b), "
     "Q0.7 (8b), Q-2.9 (8b), Q0.7 (8b) / Q0.7 (8b), Q2.5 (8b) x8, "
     "Q1.6 (8b), Q0.7 (8b)"},
    {"alex+", "fixed8", "global",
     "Q-1.8 (8b) x8 / Q2.5 (8b) x11"},
    {"alex+", "fixed4", "layer",
     "Q-2.5 (4b), Q0.3 (4b), Q-2.5 (4b), Q0.3 (4b), Q-2.5 (4b), "
     "Q0.3 (4b), Q-2.5 (4b), Q0.3 (4b) / Q0.3 (4b), Q1.2 (4b), "
     "Q2.1 (4b) x6, Q1.2 (4b) x2, Q0.3 (4b)"},
    {"alex+", "fixed4", "global",
     "Q-2.5 (4b) x8 / Q2.1 (4b) x11"},
    {"alex+", "fixed32", "layer",
     "Q-1.32 (32b), Q0.31 (32b), Q-2.33 (32b), Q0.31 (32b), "
     "Q-2.33 (32b), Q0.31 (32b), Q-2.33 (32b), "
     "Q0.31 (32b) / Q0.31 (32b), Q2.29 (32b) x3, Q3.28 (32b) x2, "
     "Q2.29 (32b) x3, Q1.30 (32b), Q0.31 (32b)"},
    {"alex+", "fixed32", "global",
     "Q-1.32 (32b) x8 / Q2.29 (32b) x11"},
    {"alex+", "pow2", "layer",
     "pow2[6b, 2^-31..2^-1], Q0.15 (16b), pow2[6b, 2^-32..2^-2], "
     "Q0.15 (16b), pow2[6b, 2^-32..2^-2], Q0.15 (16b), pow2[6b, "
     "2^-32..2^-2], Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, "
     "Q3.12 (16b) x2, Q2.13 (16b) x3, Q1.14 (16b), Q0.15 (16b)"},
    {"alex+", "pow2", "global",
     "pow2[6b, 2^-31..2^-1], Q-1.16 (16b), pow2[6b, 2^-31..2^-1], "
     "Q-1.16 (16b), pow2[6b, 2^-31..2^-1], Q-1.16 (16b), pow2[6b, "
     "2^-31..2^-1], Q-1.16 (16b) / Q2.13 (16b) x11"},
    {"alex+", "binary", "layer",
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], Q0.15 (16b), "
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], "
     "Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, Q3.12 (16b) x2, "
     "Q2.13 (16b) x3, Q1.14 (16b), Q0.15 (16b)"},
    {"alex+", "binary", "global",
     "binary[±mean|w|], Q-1.16 (16b), binary[±mean|w|], Q-1.16 (16b), "
     "binary[±mean|w|], Q-1.16 (16b), binary[±mean|w|], "
     "Q-1.16 (16b) / Q2.13 (16b) x11"},
    {"alex++", "fixed16", "layer",
     "Q-1.16 (16b), Q0.15 (16b), Q-1.16 (16b), Q0.15 (16b), "
     "Q-2.17 (16b), Q0.15 (16b), Q-3.18 (16b), Q0.15 (16b), "
     "Q-1.16 (16b), Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, "
     "Q3.12 (16b) x8, Q2.13 (16b)"},
    {"alex++", "fixed16", "global",
     "Q-1.16 (16b) x10 / Q3.12 (16b) x13"},
    {"alex++", "fixed8", "layer",
     "Q-1.8 (8b), Q0.7 (8b), Q-1.8 (8b), Q0.7 (8b), Q-2.9 (8b), "
     "Q0.7 (8b), Q-3.10 (8b), Q0.7 (8b), Q-1.8 (8b), "
     "Q0.7 (8b) / Q0.7 (8b), Q2.5 (8b) x3, Q3.4 (8b), Q2.5 (8b) x2, "
     "Q3.4 (8b) x5, Q2.5 (8b)"},
    {"alex++", "fixed8", "global",
     "Q-1.8 (8b) x10 / Q3.4 (8b) x13"},
    {"alex++", "fixed4", "layer",
     "Q-1.4 (4b), Q0.3 (4b), Q-2.5 (4b), Q0.3 (4b), Q-2.5 (4b), "
     "Q0.3 (4b), Q-3.6 (4b), Q0.3 (4b), Q-1.4 (4b), "
     "Q0.3 (4b) / Q0.3 (4b), Q1.2 (4b) x3, Q2.1 (4b) x6, Q3.0 (4b) x2, "
     "Q2.1 (4b)"},
    {"alex++", "fixed4", "global",
     "Q-2.5 (4b) x10 / Q2.1 (4b) x13"},
    {"alex++", "fixed32", "layer",
     "Q-1.32 (32b), Q0.31 (32b), Q-1.32 (32b), Q0.31 (32b), "
     "Q-2.33 (32b), Q0.31 (32b), Q-3.34 (32b), Q0.31 (32b), "
     "Q-1.32 (32b), Q0.31 (32b) / Q0.31 (32b), Q2.29 (32b) x3, "
     "Q3.28 (32b) x8, Q2.29 (32b)"},
    {"alex++", "fixed32", "global",
     "Q-1.32 (32b) x10 / Q3.28 (32b) x13"},
    {"alex++", "pow2", "layer",
     "pow2[6b, 2^-31..2^-1], Q0.15 (16b), pow2[6b, 2^-31..2^-1], "
     "Q0.15 (16b), pow2[6b, 2^-32..2^-2], Q0.15 (16b), pow2[6b, "
     "2^-33..2^-3], Q0.15 (16b), pow2[6b, 2^-31..2^-1], "
     "Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, Q3.12 (16b) x8, "
     "Q2.13 (16b)"},
    {"alex++", "pow2", "global",
     "pow2[6b, 2^-31..2^-1], Q-1.16 (16b), pow2[6b, 2^-31..2^-1], "
     "Q-1.16 (16b), pow2[6b, 2^-31..2^-1], Q-1.16 (16b), pow2[6b, "
     "2^-31..2^-1], Q-1.16 (16b), pow2[6b, 2^-31..2^-1], "
     "Q-1.16 (16b) / Q3.12 (16b) x13"},
    {"alex++", "binary", "layer",
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], Q0.15 (16b), "
     "binary[±mean|w|], Q0.15 (16b), binary[±mean|w|], Q0.15 (16b), "
     "binary[±mean|w|], Q0.15 (16b) / Q0.15 (16b), Q2.13 (16b) x3, "
     "Q3.12 (16b) x8, Q2.13 (16b)"},
    {"alex++", "binary", "global",
     "binary[±mean|w|], Q-1.16 (16b), binary[±mean|w|], Q-1.16 (16b), "
     "binary[±mean|w|], Q-1.16 (16b), binary[±mean|w|], Q-1.16 (16b), "
     "binary[±mean|w|], Q-1.16 (16b) / Q3.12 (16b) x13"},
};

TEST(Calibration, ZooFormatsMatchGolden) {
  const std::pair<const char*, PrecisionConfig> precisions[] = {
      {"fixed16", fixed_config(16, 16)}, {"fixed8", fixed_config(8, 8)},
      {"fixed4", fixed_config(4, 4)},    {"fixed32", fixed_config(32, 32)},
      {"pow2", pow2_config(6, 16)},      {"binary", binary_config(16)}};
  for (const GoldenFormats& g : kGolden) {
    PrecisionConfig config;
    for (const auto& [key, pc] : precisions)
      if (key == std::string(g.precision)) config = pc;
    ASSERT_FALSE(config.is_float()) << g.precision;
    config.radix_policy = std::string(g.policy) == "global"
                              ? RadixPolicy::kGlobal
                              : RadixPolicy::kPerLayer;
    EXPECT_EQ(calibrated_formats(g.net, config), g.formats)
        << g.net << ' ' << g.precision << ' ' << g.policy << " at "
        << simd_level_name(active_simd_level());
  }
}

}  // namespace
}  // namespace qnn::quant
