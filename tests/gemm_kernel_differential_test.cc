// Differential tests for the SIMD microkernel dispatch (DESIGN.md §15):
// the scalar fallback and the AVX2/FMA kernels must produce IDENTICAL
// bytes for every GemmOp form, shape boundary, scratch state, and
// thread count — the lane-striped fused-multiply-add contract of
// tensor/gemm.h makes this a structural property, and these tests pin
// it. The integer tile kernels, run on the tier and int16 block
// quant/acc_bound proves, must produce identical words at the scalar,
// AVX2 and AVX-512 levels. Also covers the QNN_SIMD
// runtime-dispatch clamping and override machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/microkernel.h"
#include "test_env.h"
#include "testing/gemm_forms.h"
#include "testing/proven_int_gemm.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

bool avx2_available() { return simd_supports(SimdLevel::kAvx2); }
bool avx512_available() { return simd_supports(SimdLevel::kAvx512); }

std::vector<float> random_vec(std::int64_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> out(static_cast<std::size_t>(count));
  for (float& v : out) v = dist(rng);
  return out;
}

// One output buffer per GemmOp form (testing::all_gemm_forms order), all
// computed at the given level; equal means equal bytes.
struct FormOutputs {
  std::vector<std::vector<float>> c;

  bool operator==(const FormOutputs& o) const {
    return std::equal(c.begin(), c.end(), o.c.begin(), o.c.end(),
                      testing::bytes_equal);
  }
};

FormOutputs run_all_forms(SimdLevel level, std::int64_t m, std::int64_t n,
                          std::int64_t k) {
  ScopedSimdLevel force(level);
  const auto a = random_vec(m * k, 11);    // row-major [M,K]
  const auto b = random_vec(k * n, 12);    // row-major [K,N]
  const auto at_op = random_vec(k * m, 13);  // A^T stored [K,M]
  const auto bt_op = random_vec(n * k, 14);  // B^T stored [N,K]
  const auto rbias = random_vec(m, 15);
  const auto cbias = random_vec(n, 16);
  const auto seed_c = random_vec(m * n, 17);
  const testing::GemmOperands x{
      .m = m, .n = n, .k = k, .a = a.data(), .a_t = at_op.data(),
      .b = b.data(), .b_t = bt_op.data(), .row_bias = rbias.data(),
      .col_bias = cbias.data(), .c_seed = seed_c.data()};

  FormOutputs out;
  for (const testing::GemmForm& form : testing::all_gemm_forms())
    out.c.push_back(testing::run_form(form, x));
  return out;
}

// ---------------------------------------------------------------------
// Scalar == AVX2, bytes, every form, boundary shapes.

TEST(GemmKernelDifferential, ScalarMatchesAvx2AcrossBoundaryShapes) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this machine";
  // Boundaries of the kernel geometry: the 8-wide lane stripe, the
  // 16-column AVX2 panel, the 64-row M block, and the 256-wide K chunk,
  // each straddled by one.
  const std::int64_t ms[] = {1, 4, 63, 64, 65};
  const std::int64_t ns[] = {1, 7, 8, 9, 16, 17, 255, 256, 257};
  const std::int64_t ks[] = {1, 8, 255, 256, 257};
  for (std::int64_t m : ms) {
    for (std::int64_t n : ns) {
      for (std::int64_t k : ks) {
        const FormOutputs scalar =
            run_all_forms(SimdLevel::kScalar, m, n, k);
        const FormOutputs avx2 =
            run_all_forms(SimdLevel::kAvx2, m, n, k);
        ASSERT_TRUE(scalar == avx2)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

// Narrow N, where the 8-row masked panel runs: every width 1-9 and
// 15-17 (full 8-column groups, sub-lane tails, a 16-column panel plus a
// tail) over M 1-17 (every 8-row remainder) and the 64-row block edge,
// at K around the chunk width and at a tall K. trans_b shapes with
// N*K > M*K + M*N run as the transposed product C^T = B*A^T, so the
// same panel also computes their narrow M side; every level must give
// the scalar bytes for every form.
TEST(GemmKernelDifferential, NarrowPanelsMatchScalarAtEveryLevel) {
  std::vector<std::int64_t> ms;
  for (std::int64_t m = 1; m <= 17; ++m) ms.push_back(m);
  ms.push_back(64);
  ms.push_back(65);
  const std::int64_t ns[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17};
  int transposed = 0;
  const auto check = [&](std::int64_t m, std::int64_t n, std::int64_t k) {
    if (n * k > m * k + m * n) ++transposed;
    const FormOutputs scalar = run_all_forms(SimdLevel::kScalar, m, n, k);
    for (SimdLevel level : supported_levels()) {
      if (level == SimdLevel::kScalar) continue;
      ASSERT_TRUE(scalar == run_all_forms(level, m, n, k))
          << simd_level_name(level) << " m=" << m << " n=" << n
          << " k=" << k;
    }
  };
  for (std::int64_t k : {255, 256, 257})
    for (std::int64_t m : ms)
      for (std::int64_t n : ns) check(m, n, k);
  for (std::int64_t m : {1, 8, 17, 65})
    for (std::int64_t n : {1, 8, 9, 17}) check(m, n, 4096);
  EXPECT_GT(transposed, 100);
}

TEST(GemmKernelDifferential, ScalarMatchesAvx2ColdAndWarmScratch) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this machine";
  const std::int64_t m = 65, n = 257, k = 300;  // K-chunked, odd edges
  const FormOutputs base = run_all_forms(SimdLevel::kScalar, m, n, k);
  // The workspace is per thread (testing/gemm_forms.h): cold on a new
  // thread's first pass, warm on its second, stale after a larger op.
  const std::vector<FormOutputs> passes = testing::on_fresh_thread([&] {
    std::vector<FormOutputs> out;
    out.push_back(run_all_forms(SimdLevel::kAvx2, m, n, k));
    out.push_back(run_all_forms(SimdLevel::kAvx2, m, n, k));
    testing::dirty_gemm_workspace();
    out.push_back(run_all_forms(SimdLevel::kAvx2, m, n, k));
    return out;
  });
  ASSERT_EQ(passes.size(), 3u);
  EXPECT_TRUE(base == passes[0]) << "cold";
  EXPECT_TRUE(base == passes[1]) << "warm";
  EXPECT_TRUE(base == passes[2]) << "stale";
}

TEST(GemmKernelDifferential, ScalarMatchesAvx2AcrossThreadCounts) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this machine";
  ThreadGuard guard;
  // Tall-K shape engages the K-parallel fixed-tree path; wide-M engages
  // M-block sharding.
  ThreadPool::set_global_threads(1);
  const FormOutputs base =
      run_all_forms(SimdLevel::kScalar, 130, 33, 700);
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool::set_global_threads(threads);
    const FormOutputs scalar =
        run_all_forms(SimdLevel::kScalar, 130, 33, 700);
    const FormOutputs avx2 =
        run_all_forms(SimdLevel::kAvx2, 130, 33, 700);
    EXPECT_TRUE(base == scalar) << threads << " threads (scalar)";
    EXPECT_TRUE(base == avx2) << threads << " threads (avx2)";
  }
}

// ---------------------------------------------------------------------
// Integer kernels: scalar == vector words (exact regardless of level, so
// any mismatch is a kernel bug, not a rounding difference).

template <typename WordT>
std::vector<WordT> random_words(std::int64_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(
      std::numeric_limits<WordT>::min(), std::numeric_limits<WordT>::max());
  std::vector<WordT> out(static_cast<std::size_t>(count));
  for (WordT& v : out) v = static_cast<WordT>(dist(rng));
  return out;
}

// Each shape runs on the tier quant/acc_bound proves for its words
// (testing::proven_int_gemm): random int16 words take the blocked tiles
// wherever K spans more than one proven block.
template <typename WordT>
void int_kernel_differential(SimdLevel level) {
  const std::int64_t ms[] = {1, 3, 64};
  const std::int64_t ns[] = {1, 2, 4, 5, 8, 33};
  const std::int64_t ks[] = {1, 7, 8, 15, 16, 17, 64, 300};
  int blocked = 0;
  for (std::int64_t m : ms) {
    for (std::int64_t n : ns) {
      for (std::int64_t k : ks) {
        const auto a = random_words<WordT>(m * k, 21);
        const auto b = random_words<WordT>(n * k, 22);
        std::vector<std::int64_t> cs(static_cast<std::size_t>(m * n));
        std::vector<std::int64_t> cv(static_cast<std::size_t>(m * n));
        {
          ScopedSimdLevel force(SimdLevel::kScalar);
          testing::proven_int_gemm(m, n, k, a.data(), b.data(), cs.data());
        }
        {
          ScopedSimdLevel force(level);
          const quant::AccBound bound = testing::proven_int_gemm(
              m, n, k, a.data(), b.data(), cv.data());
          if (!bound.has_min_word && bound.k_block < bound.k_pairs) ++blocked;
        }
        ASSERT_EQ(cs, cv) << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
  if constexpr (sizeof(WordT) == 2) {
    EXPECT_GT(blocked, 0);
  }
}

TEST(GemmKernelDifferential, Int8ScalarMatchesAvx2) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this machine";
  int_kernel_differential<std::int8_t>(SimdLevel::kAvx2);
}

TEST(GemmKernelDifferential, Int16ScalarMatchesAvx2) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this machine";
  int_kernel_differential<std::int16_t>(SimdLevel::kAvx2);
}

TEST(GemmKernelDifferential, Int8ScalarMatchesAvx512) {
  if (!avx512_available()) GTEST_SKIP() << "no AVX-512 VNNI on this machine";
  int_kernel_differential<std::int8_t>(SimdLevel::kAvx512);
}

TEST(GemmKernelDifferential, Int16ScalarMatchesAvx512) {
  if (!avx512_available()) GTEST_SKIP() << "no AVX-512 VNNI on this machine";
  int_kernel_differential<std::int16_t>(SimdLevel::kAvx512);
}

// Extreme operands the fast tiers accept — all -128 / 127 int8 words,
// +-32767 and -32768 int16 activations against +-32767 weights — at K
// straddling the 4-byte group, the 16-column panel and a long reduction.
// Every level must match the naive int64 sum word for word, at 1/4/8
// threads, into a cold (zeroed) and a warm (stale-word) output buffer.
template <typename WordT>
void int_tiles_extremes(SimdLevel level) {
  ThreadGuard guard;
  constexpr WordT lo = std::numeric_limits<WordT>::min();
  constexpr WordT hi = std::numeric_limits<WordT>::max();
  // Activation rows (A) and weight columns (B); B never holds -32768.
  const std::vector<std::vector<WordT>> a_fills = {
      {lo}, {hi}, {lo, hi}, {static_cast<WordT>(-hi)}};
  const std::vector<std::vector<WordT>> b_fills = {
      {sizeof(WordT) == 1 ? lo : static_cast<WordT>(-hi)}, {hi},
      {hi, static_cast<WordT>(-hi)}};
  const std::int64_t m = static_cast<std::int64_t>(a_fills.size());
  const std::int64_t n = 17;  // one full panel plus one column
  for (std::int64_t k : {1, 15, 16, 17, 63, 64, 65, 4096}) {
    std::vector<WordT> a(static_cast<std::size_t>(m * k));
    std::vector<WordT> b(static_cast<std::size_t>(n * k));
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t p = 0; p < k; ++p)
        a[static_cast<std::size_t>(i * k + p)] =
            a_fills[static_cast<std::size_t>(i)]
                   [static_cast<std::size_t>(p) %
                    a_fills[static_cast<std::size_t>(i)].size()];
    for (std::int64_t j = 0; j < n; ++j) {
      const auto& fill = b_fills[static_cast<std::size_t>(j) % b_fills.size()];
      for (std::int64_t p = 0; p < k; ++p)
        b[static_cast<std::size_t>(j * k + p)] =
            fill[static_cast<std::size_t>(p + j) % fill.size()];
    }
    std::vector<std::int64_t> want(static_cast<std::size_t>(m * n), 0);
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t p = 0; p < k; ++p)
          want[static_cast<std::size_t>(i * n + j)] +=
              static_cast<std::int64_t>(a[static_cast<std::size_t>(i * k + p)]) *
              b[static_cast<std::size_t>(j * k + p)];
    ScopedSimdLevel force(level);
    for (int threads : {1, 4, 8}) {
      ThreadPool::set_global_threads(threads);
      for (std::int64_t stale : {std::int64_t{0}, std::int64_t{0x5A5A5A5A}}) {
        std::vector<std::int64_t> got(want.size(), stale);
        testing::proven_int_gemm(m, n, k, a.data(), b.data(), got.data());
        ASSERT_EQ(got, want) << simd_level_name(level) << " k=" << k
                             << " threads=" << threads << " stale=" << stale;
      }
    }
  }
}

TEST(GemmKernelDifferential, IntTilesExactAtExtremesScalarAndAvx2) {
  for (SimdLevel level : supported_levels()) {
    if (level == SimdLevel::kAvx512) continue;
    int_tiles_extremes<std::int8_t>(level);
    int_tiles_extremes<std::int16_t>(level);
  }
}

TEST(GemmKernelDifferential, IntTilesExactAtExtremesAvx512) {
  if (!avx512_available()) GTEST_SKIP() << "no AVX-512 VNNI on this machine";
  int_tiles_extremes<std::int8_t>(SimdLevel::kAvx512);
  int_tiles_extremes<std::int16_t>(SimdLevel::kAvx512);
}

// Extreme-magnitude operands: the int8 kernel's madd pair-sums and the
// int16 kernel's widening must not wrap anywhere in the K blocking.
TEST(GemmKernelDifferential, IntKernelsExactAtExtremes) {
  auto check = [](auto word, std::int64_t k) {
    using WordT = decltype(word);
    const WordT lo = std::numeric_limits<WordT>::min();
    const WordT hi = std::numeric_limits<WordT>::max();
    std::vector<WordT> a(static_cast<std::size_t>(k), lo);
    std::vector<WordT> b(static_cast<std::size_t>(k), lo);
    std::int64_t c = 0;
    ScopedSimdLevel force(simd_support());
    // min*min: the largest positive product.
    testing::proven_int_gemm<WordT>(1, 1, k, a.data(), b.data(), &c);
    EXPECT_EQ(c, k * (static_cast<std::int64_t>(lo) * lo));
    // min*max: the most negative product.
    std::fill(b.begin(), b.end(), hi);
    testing::proven_int_gemm<WordT>(1, 1, k, a.data(), b.data(), &c);
    EXPECT_EQ(c, k * (static_cast<std::int64_t>(lo) * hi));
  };
  // K spans the int8 kernel's 2^16 K-block boundary.
  for (std::int64_t k : {1, 255, 65535, 65536, 65537, 70000}) {
    check(std::int8_t{0}, k);
  }
  for (std::int64_t k : {1, 255, 4096}) {
    check(std::int16_t{0}, k);
  }
}

// ---------------------------------------------------------------------
// QNN_SIMD dispatch and the override machinery (the spellings are in
// env_test).

TEST(SimdDispatch, EnvControlsActiveLevel) {
  ScopedEnv env("QNN_SIMD");
  env.set("off");
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  env.set("scalar");
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  env.set("avx2");
  // Clamped to hardware support: exactly avx2 when available (also on
  // an AVX-512 CPU), scalar fallback (with a warning) when not.
  EXPECT_EQ(active_simd_level(),
            avx2_available() ? SimdLevel::kAvx2 : SimdLevel::kScalar);
  env.set("avx512");
  EXPECT_EQ(active_simd_level(), simd_support());
  env.set("definitely-not-a-level");
  EXPECT_EQ(active_simd_level(), simd_support());  // auto fallback
  env.unset();
  EXPECT_EQ(active_simd_level(), simd_support());
}

TEST(SimdDispatch, ForcedLevelWinsOverEnv) {
  ScopedEnv env("QNN_SIMD");
  env.set("off");
  {
    ScopedSimdLevel force(simd_support());
    EXPECT_EQ(active_simd_level(), simd_support());
  }
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);  // force restored
}

// A force beyond the CPU clamps (with a warning) instead of running
// instructions the CPU lacks, and levels are ordered.
TEST(SimdDispatch, ForcedLevelClampsToSupport) {
  {
    ScopedSimdLevel force(SimdLevel::kAvx512);
    EXPECT_EQ(active_simd_level(), simd_support());
  }
  {
    ScopedSimdLevel force(SimdLevel::kAvx2);
    EXPECT_EQ(active_simd_level(),
              avx2_available() ? SimdLevel::kAvx2 : SimdLevel::kScalar);
  }
  EXPECT_TRUE(simd_supports(SimdLevel::kScalar));
  EXPECT_TRUE(simd_supports(simd_support()));
  EXPECT_EQ(simd_supports(SimdLevel::kAvx2),
            simd_support() >= SimdLevel::kAvx2);
  if (avx512_available()) {
    EXPECT_TRUE(avx2_available());
  }
}

// Both dispatch targets, driven through the ENV path end to end (not
// the programmatic force), produce identical bytes.
TEST(SimdDispatch, EnvDispatchTargetsProduceIdenticalBytes) {
  if (!avx2_available()) GTEST_SKIP() << "no AVX2 on this machine";
  ScopedEnv env("QNN_SIMD");
  const std::int64_t m = 33, n = 65, k = 257;
  const auto a = random_vec(m * k, 31);
  const auto b = random_vec(k * n, 32);
  std::vector<float> c_off(static_cast<std::size_t>(m * n));
  std::vector<float> c_avx2(static_cast<std::size_t>(m * n));
  env.set("off");
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
        .c = c_off.data()});
  env.set("avx2");
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
        .c = c_avx2.data()});
  EXPECT_EQ(std::memcmp(c_off.data(), c_avx2.data(),
                        c_off.size() * sizeof(float)),
            0);
}

TEST(SimdDispatch, SupportLevelNameRoundTrips) {
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx512), "avx512");
  // simd_support() is one of the defined levels.
  const SimdLevel s = simd_support();
  EXPECT_TRUE(s == SimdLevel::kScalar || s == SimdLevel::kAvx2 ||
              s == SimdLevel::kAvx512);
  ScopedEnv env("QNN_SIMD");
  for (SimdLevel l : supported_levels()) {
    env.set(simd_level_name(l));
    EXPECT_EQ(active_simd_level(), l);
  }
}

}  // namespace
}  // namespace qnn
