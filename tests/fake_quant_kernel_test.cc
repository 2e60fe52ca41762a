// The fake-quant span kernels (tensor/microkernel.h FqVecOps, written
// in tensor/int_tiles.h) checked byte for byte against their scalar
// references at every SIMD level this CPU supports: fixed point
// (quantize_fixed, FixedQuantizer) at every width, round-half-away ties
// and their neighbours, both ends of the frac range; power of two at
// the 1.5 * 2^e midpoints and the zero threshold; binary in both scale
// modes. Every input set holds NaN, ±inf, -0, subnormals and saturating
// values, runs at every tail length, and must give the guard counts of
// GuardCounters::observe.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "fixed/fixed_format.h"
#include "fixed/pow2_format.h"
#include "quant/int_datapath.h"
#include "quant/quantizer.h"
#include "tensor/microkernel.h"

namespace qnn::quant {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<SimdLevel> all_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_supports(level)) levels.push_back(level);
  return levels;
}

// Values every format must survive: the float specials, subnormals,
// the extremes, and random bit patterns of every exponent.
std::vector<float> special_inputs(std::uint64_t seed) {
  std::vector<float> x = {0.0f,
                          -0.0f,
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN(),
                          kInf,
                          -kInf,
                          std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::lowest(),
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          1e-40f,
                          -3e-39f,
                          std::numeric_limits<float>::min(),
                          -std::numeric_limits<float>::min(),
                          1e30f,
                          -1e30f,
                          1.0f,
                          -1.0f};
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 200; ++i)
    x.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng())));
  return x;
}

// `exact` and its two float neighbours.
void push_with_neighbours(std::vector<float>& x, double exact) {
  const float v = static_cast<float>(exact);
  x.push_back(v);
  x.push_back(std::nextafter(v, kInf));
  x.push_back(std::nextafter(v, -kInf));
}

// Runs `run(span, guards)` over the whole input and over every length
// 1..40 (every tail 1..16 after zero, one and two full vectors), and
// checks bytes and counts against the reference.
template <typename Run, typename Reference>
void expect_matches(const std::vector<float>& x, const Run& run,
                    const Reference& reference, double limit,
                    const std::string& what) {
  std::vector<std::size_t> lengths = {x.size()};
  for (std::size_t n = 1; n <= 40 && n <= x.size(); ++n) lengths.push_back(n);
  for (std::size_t n : lengths) {
    // Offset the short spans so they start on a varying element.
    const std::size_t off = n == x.size() ? 0 : (n * 7) % (x.size() - n + 1);
    std::vector<float> want(x.begin() + static_cast<std::ptrdiff_t>(off),
                            x.begin() + static_cast<std::ptrdiff_t>(off + n));
    GuardCounters want_guards;
    for (float& v : want) {
      want_guards.observe(v, limit);
      v = reference(v);
    }
    for (SimdLevel level : all_levels()) {
      std::vector<float> got(x.begin() + static_cast<std::ptrdiff_t>(off),
                             x.begin() + static_cast<std::ptrdiff_t>(off + n));
      GuardCounters guards;
      run(std::span<float>(got), &guards, level);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(want[i]))
            << what << " at " << simd_level_name(level) << " n=" << n
            << " x=" << x[off + i] << " got " << got[i] << " want "
            << want[i];
      ASSERT_EQ(guards.values, want_guards.values) << what;
      ASSERT_EQ(guards.saturated, want_guards.saturated) << what;
      ASSERT_EQ(guards.nan, want_guards.nan) << what;
      ASSERT_EQ(guards.inf, want_guards.inf) << what;
    }
  }
}

// ---------------------------------------------------------------------
// Fixed point.

std::vector<float> fixed_inputs(const FixedPointFormat& f) {
  std::vector<float> x = special_inputs(static_cast<std::uint64_t>(
      f.total_bits() * 1000 + f.frac_bits() + 500));
  const double step = f.step();
  // .5 ties and their neighbours around zero, at both saturation points
  // and in between; the clip limit and its neighbours.
  const auto ties_near = [&](std::int64_t r0) {
    for (std::int64_t r = r0 - 3; r <= r0 + 3; ++r)
      for (double off : {-0.5, 0.0, 0.5})
        push_with_neighbours(x, (static_cast<double>(r) + off) * step);
  };
  ties_near(0);
  ties_near(f.raw_min());
  ties_near(f.raw_max());
  ties_near(f.raw_max() / 3);
  ties_near(f.raw_min() / 5);
  push_with_neighbours(x, f.max_value());
  push_with_neighbours(x, -f.max_value());
  push_with_neighbours(x, f.min_value());
  std::mt19937_64 rng(static_cast<std::uint64_t>(f.total_bits()));
  std::uniform_real_distribution<double> dist(2 * f.min_value(),
                                              2 * f.max_value());
  for (int i = 0; i < 100; ++i) x.push_back(static_cast<float>(dist(rng)));
  return x;
}

void expect_fixed_matches(const FixedPointFormat& f) {
  expect_matches(
      fixed_inputs(f),
      [&](std::span<float> x, GuardCounters* g, SimdLevel level) {
        quantize_fixed(f, x, g, level);
      },
      [&](float v) { return f.quantize(v); }, f.max_value(), f.to_string());
}

TEST(FakeQuantKernel, FixedEveryWidthAndFracMatchesQuantize) {
  for (int bits = 2; bits <= 32; ++bits)
    for (int frac : {-126, -125, -100, -31, -8, 0, 1, 5, 8, 15, 23, 31, 64,
                     100, 125, 126})
      expect_fixed_matches(FixedPointFormat(bits, frac));
}

TEST(FakeQuantKernel, FixedOutsideTheKernelRangeRunsTheReference) {
  // frac beyond [-126, 126] and every other rounding mode but stochastic
  // take the scalar loop at every level; the bytes are the same.
  for (int bits : {4, 16, 24, 25, 32})
    for (int frac : {-140, -127, 127, 140})
      expect_fixed_matches(FixedPointFormat(bits, frac));
  for (Rounding r : {Rounding::kFloor, Rounding::kNearestEven})
    for (int bits : {4, 8, 16, 32})
      expect_fixed_matches(FixedPointFormat(bits, bits / 2, r));
}

TEST(FakeQuantKernel, StochasticRoundingKeepsItsDrawOrder) {
  const FixedPointFormat f(8, 5, Rounding::kStochastic);
  const std::vector<float> x = fixed_inputs(f);
  seed_stochastic_rounding(77);
  std::vector<float> want = x;
  for (float& v : want) v = f.quantize(v);
  for (SimdLevel level : all_levels()) {
    seed_stochastic_rounding(77);
    std::vector<float> got = x;
    quantize_fixed(f, got, nullptr, level);
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << simd_level_name(level) << " x=" << x[i];
  }
}

TEST(FakeQuantKernel, NegativeZeroAndNanGivePositiveZero) {
  const FixedPointFormat f(8, 4);
  for (SimdLevel level : all_levels()) {
    std::vector<float> x = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                            -0.01f};
    quantize_fixed(f, x, nullptr, level);
    for (float v : x)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(v), 0u) << simd_level_name(level);
  }
}

TEST(FakeQuantKernel, FixedQuantizerRunsTheKernel) {
  // The quantizer path: calibrated formats of the paper's widths.
  for (int bits : {4, 8, 16, 32}) {
    FixedQuantizer q(bits);
    q.calibrate(3.0);
    const FixedPointFormat& f = *q.format();
    expect_matches(
        fixed_inputs(f),
        [&](std::span<float> x, GuardCounters* g, SimdLevel level) {
          q.apply(x, g, level);
        },
        [&](float v) { return f.quantize(v); }, q.clip_limit(),
        q.describe());
  }
}

TEST(FakeQuantKernel, Int32WordEncodeMatchesToRaw) {
  // The fixed weight words of the integer lowering.
  for (int bits : {4, 8, 16, 24, 25, 32}) {
    for (int frac : {-20, 0, bits - 1, 40}) {
      const FixedPointFormat f(bits, frac);
      const std::vector<float> x = fixed_inputs(f);
      for (SimdLevel level : all_levels()) {
        std::vector<std::int32_t> got(x.size());
        encode_words(level, x.data(), static_cast<std::int64_t>(x.size()), f,
                     got.data());
        for (std::size_t i = 0; i < x.size(); ++i)
          ASSERT_EQ(got[i], f.to_raw(x[i]))
              << simd_level_name(level) << " " << f.to_string()
              << " x=" << x[i];
      }
    }
  }
}

// ---------------------------------------------------------------------
// Power of two.

std::vector<float> pow2_inputs(const Pow2Format& f) {
  std::vector<float> x = special_inputs(
      static_cast<std::uint64_t>(f.total_bits() * 1000 + f.exp_max() + 500));
  // The grid, the 1.5 * 2^e midpoints and the zero threshold, each with
  // its neighbours, from below the range to above it.
  for (int e = f.exp_min() - 3; e <= f.exp_max() + 3; ++e) {
    if (e < -149 || e > 127) continue;
    push_with_neighbours(x, std::ldexp(1.0, e));
    push_with_neighbours(x, -std::ldexp(1.0, e));
    if (e <= 126 && e >= -148) {
      push_with_neighbours(x, 1.5 * std::ldexp(1.0, e));
      push_with_neighbours(x, -1.5 * std::ldexp(1.0, e));
    }
  }
  if (f.exp_min() - 1 >= -149) {
    push_with_neighbours(x, 0.5 * f.min_positive());
    push_with_neighbours(x, -0.5 * f.min_positive());
  }
  std::mt19937_64 rng(static_cast<std::uint64_t>(f.exp_max() + 1000));
  std::uniform_real_distribution<double> dist(-2 * f.max_value(),
                                              2 * f.max_value());
  for (int i = 0; i < 100; ++i) x.push_back(static_cast<float>(dist(rng)));
  return x;
}

void expect_pow2_matches(int bits, int exp_max) {
  Pow2Quantizer q(bits);
  q.calibrate(std::ldexp(1.0, exp_max));
  const Pow2Format& f = *q.format();
  ASSERT_EQ(f.exp_max(), exp_max);
  expect_matches(
      pow2_inputs(f),
      [&](std::span<float> x, GuardCounters* g, SimdLevel level) {
        q.apply(x, g, level);
      },
      [&](float v) { return f.quantize(v); }, q.clip_limit(), f.to_string());
}

TEST(FakeQuantKernel, Pow2MatchesQuantize) {
  for (int bits : {2, 3, 4, 6, 8})
    for (int exp_max : {-120, -5, 0, 1, 3, 20, 100, 127})
      expect_pow2_matches(bits, exp_max);
}

TEST(FakeQuantKernel, Pow2AtTheSubnormalEdgeMatchesQuantize) {
  // exp_min = -126 (the lowest the kernel takes): subnormals at or above
  // the zero threshold 2^-127 round onto 2^-126.
  expect_pow2_matches(6, -96);
  // exp_min = -127 and exp_max = 128 run the reference.
  expect_pow2_matches(6, -97);
  expect_pow2_matches(4, 128);
  expect_pow2_matches(12, 0);
}

TEST(FakeQuantKernel, Pow2InfSaturates) {
  Pow2Quantizer q(6);
  q.calibrate(4.0);
  for (SimdLevel level : all_levels()) {
    std::vector<float> x = {kInf, -kInf};
    q.apply(x, nullptr, level);
    EXPECT_EQ(x[0], 4.0f) << simd_level_name(level);
    EXPECT_EQ(x[1], -4.0f) << simd_level_name(level);
  }
}

// ---------------------------------------------------------------------
// Binary.

TEST(FakeQuantKernel, BinaryMatchesQuantizeInBothScaleModes) {
  std::vector<float> finite = {0.0f,  -0.0f,  1e-40f, -1e-40f,
                               0.75f, -0.25f, 1.5f,   -2.0f};
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> dist(-1.5f, 1.5f);
  for (int i = 0; i < 300; ++i) finite.push_back(dist(rng));
  for (BinaryScaleMode mode :
       {BinaryScaleMode::kPlusMinusOne, BinaryScaleMode::kMeanAbs}) {
    const BinaryQuantizer q(mode);
    const BinaryFormat format(mode);
    // Finite inputs, then the specials (whose mean-abs scale is not
    // finite). The scale is a sum over the span that runs, so every
    // prefix length takes its own.
    for (const std::vector<float>& x : {finite, special_inputs(9)}) {
      std::vector<std::size_t> lengths = {x.size()};
      for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
      for (std::size_t n : lengths) {
        const std::span<const float> in(x.data(), n);
        const double scale = format.scale_for(in);
        std::vector<float> want(in.begin(), in.end());
        GuardCounters want_guards;
        for (float& v : want) {
          want_guards.observe(v, q.clip_limit());
          v = static_cast<float>(BinaryFormat::quantize(v, scale));
        }
        for (SimdLevel level : all_levels()) {
          std::vector<float> got(in.begin(), in.end());
          GuardCounters guards;
          q.apply(got, &guards, level);
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                      std::bit_cast<std::uint32_t>(want[i]))
                << format.to_string() << " " << simd_level_name(level)
                << " n=" << n << " x=" << x[i];
          ASSERT_EQ(guards.values, want_guards.values);
          ASSERT_EQ(guards.saturated, want_guards.saturated);
          ASSERT_EQ(guards.nan, want_guards.nan);
          ASSERT_EQ(guards.inf, want_guards.inf);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Guard counts.

TEST(FakeQuantKernel, GuardLimitIsTheLargestFloatBelowTheClipLimit) {
  // A clip limit between two floats: the float just above it saturates,
  // the one just below does not, at every level.
  const FixedPointFormat f(26, 0);  // max 2^25 - 1, not a float
  ASSERT_NE(static_cast<double>(static_cast<float>(f.max_value())),
            f.max_value());
  expect_matches(
      {33554430.0f, 33554432.0f, -33554432.0f, 33554434.0f, 33554428.0f},
      [&](std::span<float> x, GuardCounters* g, SimdLevel level) {
        quantize_fixed(f, x, g, level);
      },
      [&](float v) { return f.quantize(v); }, f.max_value(), "limit edge");
  IdentityQuantizer id;
  std::vector<float> x = special_inputs(3);
  GuardCounters want;
  for (float v : x) want.observe(v, 0.0);
  GuardCounters got;
  id.apply(x, &got, active_simd_level());
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.saturated, 0);
  EXPECT_EQ(got.nan, want.nan);
  EXPECT_EQ(got.inf, want.inf);
}

}  // namespace
}  // namespace qnn::quant
