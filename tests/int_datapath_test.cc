// The vector data path of the native integer forward (quant/int_datapath,
// tensor/int_tiles.h) checked word for word against its scalar
// reference at every vector level this CPU supports: the im2row pack,
// max/avg pooling, the standalone requant, the input encode (against
// FixedPointFormat::to_raw itself), and the tiles' i32 register
// epilogue together with the bound that selects it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "fixed/fixed_arith.h"
#include "quant/acc_bound.h"
#include "quant/int_datapath.h"
#include "quant/int_plan.h"
#include "tensor/int_gemm.h"
#include "tensor/microkernel.h"

namespace qnn::quant {
namespace {

std::vector<SimdLevel> vector_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_supports(level)) levels.push_back(level);
  return levels;
}

template <typename WordT>
std::vector<WordT> random_words(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(std::numeric_limits<WordT>::min(),
                                          std::numeric_limits<WordT>::max());
  std::vector<WordT> v(n);
  for (WordT& w : v) w = static_cast<WordT>(dist(rng));
  // The extreme words, wherever they land.
  for (std::size_t i = 0; i < n; i += 7) v[i] = std::numeric_limits<WordT>::min();
  for (std::size_t i = 3; i < n; i += 11) v[i] = std::numeric_limits<WordT>::max();
  return v;
}

// ---------------------------------------------------------------------
// im2row pack.

struct PatchCase {
  std::int64_t in_c, kernel, stride, h, w, pad;
};

template <typename WordT>
void expect_pack_matches(const PatchCase& pc) {
  IntPatchGeom g;
  g.in_c = pc.in_c;
  g.kernel = pc.kernel;
  g.stride = pc.stride;
  g.hp = pc.h + 2 * pc.pad;
  g.wp = pc.w + 2 * pc.pad;
  g.ow = (g.wp - pc.kernel) / pc.stride + 1;
  const std::int64_t oh = (g.hp - pc.kernel) / pc.stride + 1;
  const std::int64_t plane_words = pc.in_c * g.hp * g.wp;
  // The planes with kIntPanel words of (random) slack on each side.
  const std::vector<WordT> buf = random_words<WordT>(
      static_cast<std::size_t>(plane_words + 2 * kIntPanel), 11);
  const WordT* img = buf.data() + kIntPanel;
  const WordT zero = int_pack_word<WordT>(0, sizeof(WordT) == 1);
  const std::size_t panel_words =
      static_cast<std::size_t>(int_panel_words<WordT>(g.k()));
  for (std::int64_t j0 = 0; j0 < oh * g.ow; j0 += kIntPanel) {
    const std::int64_t cols = std::min(kIntPanel, oh * g.ow - j0);
    std::vector<WordT> want(panel_words, 1), got(panel_words, 2);
    pack_patch(SimdLevel::kScalar, g, img, j0, cols, zero, want.data());
    for (SimdLevel level : vector_levels()) {
      pack_patch(level, g, img, j0, cols, zero, got.data());
      ASSERT_EQ(got, want) << simd_level_name(level) << " j0=" << j0
                           << " ow=" << g.ow << " stride=" << pc.stride
                           << " pad=" << pc.pad << " k=" << g.k();
    }
  }
}

const PatchCase kPatchCases[] = {
    {1, 5, 1, 28, 28, 0},  // LeNet conv1: ow = 24, K = 25 (tail 3)
    {10, 5, 1, 12, 12, 0}, // LeNet x0.5 conv2: ow = 8 < 16
    {3, 3, 1, 7, 5, 1},    // ow = 5: four output rows per panel
    {3, 5, 1, 12, 12, 2},  // pad 2
    {4, 3, 1, 18, 18, 0},  // ow = 16: one run per K row
    {2, 2, 1, 3, 40, 0},   // ow = 39, not a multiple of 16
    {1, 1, 1, 4, 4, 0},    // K = 1: three tail rows
    {1, 3, 1, 3, 3, 0},    // ow = 1, one column, 15 past the image
    {2, 3, 2, 9, 9, 1},    // stride 2: the general path
    {3, 3, 2, 11, 11, 0},  // stride 2, no pad
};

TEST(IntDatapath, PackMatchesScalarInt8) {
  for (const PatchCase& pc : kPatchCases) expect_pack_matches<std::int8_t>(pc);
}

TEST(IntDatapath, PackMatchesScalarInt16) {
  for (const PatchCase& pc : kPatchCases) expect_pack_matches<std::int16_t>(pc);
}

// ---------------------------------------------------------------------
// Pooling.

struct PoolCase {
  nn::PoolMode mode;
  std::int64_t kernel, stride, pad, h, w;
};

template <typename WordT>
void expect_pool_matches(const PoolCase& pc, int bits) {
  IntStage stage;
  stage.kind = IntStageKind::kPool;
  stage.kernel = pc.kernel;
  stage.stride = pc.stride;
  stage.pad = pc.pad;
  const std::int64_t planes = 3;
  const Shape os = stage.out_shape(Shape{1, planes, pc.h, pc.w});
  const IntPoolGeom g{pc.h,      pc.w,      os.h(), os.w(),
                      pc.kernel, pc.stride, pc.pad};
  const std::vector<WordT> in = random_words<WordT>(
      static_cast<std::size_t>(planes * pc.h * pc.w), 5);
  const std::size_t out_words = static_cast<std::size_t>(planes * g.oh * g.ow);
  const FixedPointFormat to(bits, bits / 2);
  // in_frac above (round down), equal to, and below (saturating up-shift)
  // the output's.
  for (int in_frac : {to.frac_bits() + 3, to.frac_bits(), to.frac_bits() - 2}) {
    std::vector<WordT> want(out_words, 1), got(out_words, 2);
    pool_planes(SimdLevel::kScalar, g, pc.mode, in_frac, to, planes, in.data(),
                want.data());
    for (SimdLevel level : vector_levels()) {
      pool_planes(level, g, pc.mode, in_frac, to, planes, in.data(),
                  got.data());
      ASSERT_EQ(got, want) << simd_level_name(level) << " k=" << pc.kernel
                           << " s=" << pc.stride << " pad=" << pc.pad
                           << " in_frac=" << in_frac;
    }
  }
}

const PoolCase kPoolCases[] = {
    {nn::PoolMode::kMax, 2, 2, 0, 24, 24},  // LeNet pool1
    {nn::PoolMode::kMax, 2, 2, 0, 8, 8},    // LeNet pool2
    {nn::PoolMode::kMax, 3, 2, 1, 32, 32},  // ALEX pools: pad + ceil mode
    {nn::PoolMode::kMax, 3, 2, 0, 9, 35},   // ceil-mode clipped last window
    {nn::PoolMode::kMax, 3, 1, 1, 7, 21},   // stride 1, pad 1
    {nn::PoolMode::kMax, 2, 1, 0, 5, 40},   // stride 1, ow = 39
    {nn::PoolMode::kMax, 3, 3, 1, 10, 50},  // stride 3: strided gather
    {nn::PoolMode::kMax, 1, 2, 0, 4, 36},   // kernel < stride, no pad
    {nn::PoolMode::kAvg, 3, 2, 1, 16, 16},  // ALEX avg pool
    {nn::PoolMode::kAvg, 2, 2, 0, 7, 9},
    {nn::PoolMode::kAvg, 3, 1, 1, 5, 6},
};

// The integer lowering shares nn's pool extent: a kernel below the
// stride with no pad drops the window that would start past the image.
TEST(IntDatapath, PoolOutShapeDropsEmptyWindow) {
  IntStage stage;
  stage.kind = IntStageKind::kPool;
  stage.kernel = 1;
  stage.stride = 2;
  stage.pad = 0;
  EXPECT_EQ(stage.out_shape(Shape{2, 3, 4, 4}), Shape({2, 3, 2, 2}));
  EXPECT_EQ(stage.out_shape(Shape{1, 1, 5, 4}), Shape({1, 1, 3, 2}));
  stage.kernel = 3;
  EXPECT_EQ(stage.out_shape(Shape{1, 1, 32, 32}), Shape({1, 1, 16, 16}));
}

TEST(IntDatapath, PoolMatchesScalarInt8) {
  for (const PoolCase& pc : kPoolCases) expect_pool_matches<std::int8_t>(pc, 8);
}

TEST(IntDatapath, PoolMatchesScalarInt16) {
  for (const PoolCase& pc : kPoolCases)
    expect_pool_matches<std::int16_t>(pc, 16);
}

// ---------------------------------------------------------------------
// The standalone requant (ReLU and passthrough stages).

template <typename WordT>
void expect_requant_matches(int bits) {
  const std::vector<WordT> in = random_words<WordT>(1000, 9);
  const FixedPointFormat to(bits, 3);
  for (int in_frac : {-20, -5, 0, 3, 4, 9, 18, 33, 40}) {
    for (bool relu : {false, true}) {
      // 1000 words: 62 full vectors and a tail of 8.
      std::vector<WordT> want(in.size());
      requant_words(SimdLevel::kScalar, in.data(),
                    static_cast<std::int64_t>(in.size()), in_frac, to, relu,
                    want.data());
      for (std::size_t i = 0; i < in.size(); ++i) {
        const std::int64_t v = relu ? std::max<std::int64_t>(in[i], 0) : in[i];
        ASSERT_EQ(want[i], std::clamp(shift_raw_rounded(v, in_frac, 3),
                                      to.raw_min(), to.raw_max()));
      }
      for (SimdLevel level : vector_levels()) {
        std::vector<WordT> got(in);  // in place, as the pool's requant runs
        requant_words(level, got.data(), static_cast<std::int64_t>(got.size()),
                      in_frac, to, relu, got.data());
        ASSERT_EQ(got, want) << simd_level_name(level) << " in_frac=" << in_frac
                             << " relu=" << relu;
      }
    }
  }
}

TEST(IntDatapath, RequantMatchesScalar) {
  expect_requant_matches<std::int8_t>(8);
  expect_requant_matches<std::int16_t>(16);
}

// ---------------------------------------------------------------------
// Input encode vs FixedPointFormat::to_raw.

std::vector<float> encode_inputs(const FixedPointFormat& f) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x = {
      0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(), inf, -inf,
      std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 1e-40f, -3e-39f,
      std::numeric_limits<float>::min(), 1e30f, -1e30f};
  const double step = f.step();
  // Exact .5 ties and their float neighbours, across the whole range and
  // past both saturation points.
  for (std::int64_t r = f.raw_min() - 3; r <= f.raw_max() + 3;
       r += f.total_bits() > 8 ? 97 : 1) {
    for (double off : {-0.5, 0.0, 0.5}) {
      const float v = static_cast<float>((static_cast<double>(r) + off) * step);
      x.push_back(v);
      x.push_back(std::nextafter(v, inf));
      x.push_back(std::nextafter(v, -inf));
    }
  }
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<float> dist(
      static_cast<float>(2 * f.min_value()),
      static_cast<float>(2 * f.max_value()));
  for (int i = 0; i < 301; ++i) x.push_back(dist(rng));
  return x;
}

template <typename WordT>
void expect_encode_matches(const FixedPointFormat& f) {
  const std::vector<float> x = encode_inputs(f);
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2,
                          SimdLevel::kAvx512}) {
    if (!simd_supports(level)) continue;
    std::vector<WordT> got(x.size());
    encode_words(level, x.data(), static_cast<std::int64_t>(x.size()), f,
                 got.data());
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(got[i], f.to_raw(x[i]))
          << simd_level_name(level) << " " << f.to_string() << " x=" << x[i];
  }
}

TEST(IntDatapath, EncodeMatchesToRaw) {
  for (int frac : {-3, 0, 4, 7, 12})
    expect_encode_matches<std::int8_t>(FixedPointFormat(8, frac));
  expect_encode_matches<std::int8_t>(FixedPointFormat(4, 2));
  for (int frac : {-6, 0, 8, 15, 30})
    expect_encode_matches<std::int16_t>(FixedPointFormat(16, frac));
}

// ---------------------------------------------------------------------
// The i32 register epilogue.

// max_abs + half == 2^31 - 1 is the last bound the int32 lanes hold.
TEST(IntDatapath, EpilogueWidthFollowsTheInt32Edge) {
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  const std::vector<std::int8_t> w(64, 127);
  const FixedPointFormat in(8, 0);  // |a| <= 128
  for (int shift : {0, 1, 16, 30}) {
    const std::int64_t half = shift > 0 ? std::int64_t{1} << (shift - 1) : 0;
    std::int64_t bias = kMax32 - half - 128 * 64 * 127;
    AccBound b = bound_accumulator(1, 64, w.data(), in, &bias);
    EXPECT_EQ(b.max_abs + half, kMax32);
    std::string reason;
    ASSERT_EQ(choose_int_tier(8, b, &reason), IntTier::kDot8);
    EXPECT_EQ(choose_int_epilogue(IntTier::kDot8, b, shift, false),
              IntEpilogueWidth::kI32)
        << shift;
    ++bias;  // one word over
    b = bound_accumulator(1, 64, w.data(), in, &bias);
    EXPECT_EQ(choose_int_epilogue(IntTier::kDot8, b, shift, false),
              IntEpilogueWidth::kI64)
        << shift;
  }
  // Only lanes that hold the whole K (the int8 tier, or the int16 tier
  // in one block) finish in int32, and a shift past 30 never fits.
  AccBound small;
  small.max_abs = 1000;
  EXPECT_EQ(choose_int_epilogue(IntTier::kDot8, small, 30, false),
            IntEpilogueWidth::kI32);
  EXPECT_EQ(choose_int_epilogue(IntTier::kDot8, small, 31, false),
            IntEpilogueWidth::kI64);
  EXPECT_EQ(choose_int_epilogue(IntTier::kMadd16Blocked, small, 4, false),
            IntEpilogueWidth::kI64);
  small.k_pairs = 3;
  small.k_block = 3;
  EXPECT_EQ(choose_int_epilogue(IntTier::kMadd16Blocked, small, 4, false),
            IntEpilogueWidth::kI32);
  small.k_block = 2;
  EXPECT_EQ(choose_int_epilogue(IntTier::kMadd16Blocked, small, 4, false),
            IntEpilogueWidth::kI64);
  EXPECT_EQ(choose_int_epilogue(IntTier::kExact64, small, 4, false),
            IntEpilogueWidth::kI64);
  // A binary stage's scaled step reads the int32 lanes as doubles: it
  // finishes in int32 exactly when the lanes hold the whole K, whatever
  // the shift or the bound.
  small.max_abs = kMax32 + 1;
  EXPECT_EQ(choose_int_epilogue(IntTier::kMadd16Blocked, small, 31, true),
            IntEpilogueWidth::kI64);
  small.k_block = 3;
  EXPECT_EQ(choose_int_epilogue(IntTier::kMadd16Blocked, small, 31, true),
            IntEpilogueWidth::kI32);
  EXPECT_EQ(choose_int_epilogue(IntTier::kMadd16Blocked, small, 4, false),
            IntEpilogueWidth::kI64);
  EXPECT_EQ(choose_int_epilogue(IntTier::kExact64, small, 4, true),
            IntEpilogueWidth::kI64);
  EXPECT_STREQ(int_epilogue_name(IntEpilogueWidth::kI32), "i32");
  EXPECT_STREQ(int_epilogue_name(IntEpilogueWidth::kI64), "i64");
}

// A conv-shaped int8 job (weights as A rows, offset activations as B
// panels, per-row addends): the i32 epilogue gives the words of the
// int64 one, including accumulators exactly at the int32 edge.
TEST(IntDatapath, I32EpilogueMatchesI64AtTheEdge) {
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  const std::int64_t m = 11, n = 37, k = 64;
  const int shift = 16;  // half = 2^15
  std::vector<std::int8_t> w = random_words<std::int8_t>(m * k, 3);
  std::vector<std::int8_t> a = random_words<std::int8_t>(n * k, 4);
  // Row 0: all 127 against column 0: all -128 -> acc = -128 * 127 * 64.
  for (std::int64_t p = 0; p < k; ++p) {
    w[static_cast<std::size_t>(p)] = 127;
    a[static_cast<std::size_t>(p)] = -128;
  }
  std::vector<std::int64_t> bias(static_cast<std::size_t>(m));
  std::mt19937_64 rng(8);
  std::uniform_int_distribution<std::int64_t> big(-(1 << 29), 1 << 29);
  for (std::int64_t& b : bias) b = big(rng);
  const std::int64_t edge = kMax32 - (std::int64_t{1} << (shift - 1));
  bias[0] = -(edge - 128 * 127 * k);  // row 0, column 0: acc = -edge
  const AccBound bound =
      bound_accumulator(m, k, w.data(), FixedPointFormat(8, 0), bias.data());
  std::string reason;
  ASSERT_EQ(choose_int_tier(8, bound, &reason), IntTier::kDot8);
  ASSERT_EQ(choose_int_epilogue(IntTier::kDot8, bound, shift, false),
            IntEpilogueWidth::kI32);

  std::vector<std::int64_t> addend = bias;
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p)
      addend[static_cast<std::size_t>(i)] -=
          128 * w[static_cast<std::size_t>(i * k + p)];
  std::vector<std::int8_t> pa(static_cast<std::size_t>(m * int_row_words<std::int8_t>(k)));
  std::vector<std::int8_t> pb(
      static_cast<std::size_t>(int_panels(n) * int_panel_words<std::int8_t>(k)));
  pack_int_rows<std::int8_t>(m, k, w.data(), k, false, pa.data());
  pack_int_panels<std::int8_t>(n, k, a.data(), k, true, pb.data());

  for (int out_bits : {8, 16}) {
    const FixedPointFormat mid(out_bits, 0), relu_out(out_bits, 1);
    for (bool relu : {false, true}) {
      IntTileJob job;
      job.body = IntBody::kS8;
      job.m = m;
      job.n = n;
      job.groups = int_groups<std::int8_t>(k);
      job.a = pa.data();
      job.b = pb.data();
      job.epi.row_add = addend.data();
      job.epi.requant = IntRequant{shift, mid.raw_min(), mid.raw_max()};
      job.epi.relu = relu;
      job.epi.relu_requant = IntRequant{-1, relu_out.raw_min(), relu_out.raw_max()};
      job.epi.ldo = n;
      job.epi.out_bytes = out_bits / 8;
      const auto run = [&](SimdLevel level, bool i32) {
        std::vector<std::int16_t> out(static_cast<std::size_t>(m * n), 7);
        job.epi.i32 = i32;
        job.epi.out = out.data();
        int_tiles(level, job);
        std::vector<std::int64_t> words;
        for (std::int64_t i = 0; i < m * n; ++i)
          words.push_back(out_bits == 8
                              ? reinterpret_cast<const std::int8_t*>(out.data())[i]
                              : out[static_cast<std::size_t>(i)]);
        return words;
      };
      const std::vector<std::int64_t> want = run(SimdLevel::kScalar, false);
      // -edge rounds to -(2^31 - 1) >> 16 = -32767 before saturation.
      const std::int64_t w00 =
          std::clamp<std::int64_t>(-32767, mid.raw_min(), mid.raw_max());
      EXPECT_EQ(want[0], relu ? 0 : w00);
      for (SimdLevel level : vector_levels()) {
        EXPECT_EQ(run(level, true), want)
            << simd_level_name(level) << " out_bits=" << out_bits
            << " relu=" << relu;
        EXPECT_EQ(run(level, false), want) << simd_level_name(level);
      }
    }
  }
}

}  // namespace
}  // namespace qnn::quant
