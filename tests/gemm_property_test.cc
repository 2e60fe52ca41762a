// Differential/property harness for the K-sharded GEMM (DESIGN.md §9).
//
// The kernels promise a *canonical order*: K splits into fixed chunks
// (gemm_k_plan, a pure function of K), each chunk partial is a serial
// float left-fold over its K range, and partials merge through a fixed
// binary tree. Three properties pin it down:
//
//  1. Differential vs the kernel itself: a K-chunked product must equal,
//     byte for byte, the fixed tree over single-chunk products computed
//     by the same kernel on sliced operands. This holds regardless of
//     how the compiler contracts the inner loop (both sides use the
//     identical kernel), so it is the structural bit-exactness check.
//  2. Differential vs a standalone naive reference in double precision,
//     within a rounding tolerance — catches consistently-wrong math the
//     self-differential check cannot see.
//  3. Thread-count invariance: bytes at 1/2/4/8/16 threads are identical,
//     on a cold, warm and stale per-thread workspace, for every GemmOp
//     form.
//
// A standalone fused-multiply-add reference also pins the accumulate
// contract of gemm.h: a single-chunk plan seeds the fold with the old C,
// a chunked plan adds the tree result to it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "test_env.h"
#include "testing/gemm_forms.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

using testing::bytes_equal;

std::vector<float> random_matrix(std::int64_t elems, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(elems));
  for (float& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

// The documented canonical order, built from the production kernel
// itself: per-chunk single-chunk gemm calls (count == 1 plans, i.e. the
// classic serial fold) on contiguous operand slices, merged by the
// fixed binary tree. Any divergence between this and the one-shot
// chunked kernel is a merge-order or chunk-boundary bug.
std::vector<float> tree_of_single_chunk_gemms(std::int64_t m, std::int64_t n,
                                              std::int64_t k, const float* a,
                                              const float* b) {
  const GemmKPlan plan = gemm_k_plan(k);
  const std::size_t elems = static_cast<std::size_t>(m * n);
  std::vector<std::vector<float>> parts(
      static_cast<std::size_t>(plan.count), std::vector<float>(elems, 0.0f));
  for (std::int64_t c = 0; c < plan.count; ++c) {
    const std::int64_t p0 = c * plan.chunk;
    const std::int64_t kb = std::min(plan.chunk, k - p0);
    if (kb <= 0) continue;  // k == 0: the single empty chunk
    // Contiguous slices A[:, p0:p0+kb] and B[p0:p0+kb, :].
    std::vector<float> a_slice(static_cast<std::size_t>(m * kb));
    for (std::int64_t i = 0; i < m; ++i)
      std::memcpy(a_slice.data() + i * kb, a + i * k + p0,
                  sizeof(float) * static_cast<std::size_t>(kb));
    gemm({.m = m, .n = n, .k = kb, .a = a_slice.data(), .b = b + p0 * n,
          .c = parts[static_cast<std::size_t>(c)].data()});
  }
  // Fixed binary tree: combine parts[lo] += parts[lo + stride].
  for (std::int64_t stride = 1; stride < plan.count; stride *= 2)
    for (std::int64_t lo = 0; lo + stride < plan.count; lo += 2 * stride) {
      float* dst = parts[static_cast<std::size_t>(lo)].data();
      const float* src = parts[static_cast<std::size_t>(lo + stride)].data();
      for (std::size_t e = 0; e < elems; ++e) dst[e] += src[e];
    }
  return parts.empty() ? std::vector<float>(elems, 0.0f)
                       : std::move(parts.front());
}

void naive_gemm_double(std::int64_t m, std::int64_t n, std::int64_t k,
                       const float* a, const float* b, double* c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      c[i * n + j] = acc;
    }
}

// Shapes straddling every plan edge: K = 0, 1, chunk - 1, chunk,
// chunk + 1, 2*chunk ± 1, and non-multiples; M straddling the 64-row
// blocks; N straddling the 256-column cache blocks.
struct Problem {
  std::int64_t m, n, k;
};

std::vector<Problem> edge_problems() {
  const std::int64_t ch = kGemmKChunk;
  return {
      {1, 1, 0},        {3, 5, 1},         {8, 33, ch - 1},
      {8, 33, ch},      {8, 33, ch + 1},   {1, 300, 2 * ch - 1},
      {5, 96, 2 * ch},  {5, 96, 2 * ch + 1}, {64, 17, 3 * ch + 7},
      {65, 40, 700},    {130, 9, 1000},    {8, 257, 4 * ch + 13},
  };
}

std::vector<Problem> random_problems(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Problem> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({1 + static_cast<std::int64_t>(rng.uniform(0, 140)),
                   1 + static_cast<std::int64_t>(rng.uniform(0, 300)),
                   static_cast<std::int64_t>(rng.uniform(0, 1400))});
  }
  return out;
}

TEST(GemmKPlan, IsAPureShapeFunctionCoveringK) {
  EXPECT_EQ(gemm_k_plan(0), (GemmKPlan{0, 1}));
  EXPECT_EQ(gemm_k_plan(1), (GemmKPlan{1, 1}));
  EXPECT_EQ(gemm_k_plan(kGemmKChunk), (GemmKPlan{kGemmKChunk, 1}));
  EXPECT_EQ(gemm_k_plan(kGemmKChunk + 1), (GemmKPlan{kGemmKChunk, 2}));
  for (std::int64_t k : {1, 255, 256, 257, 511, 512, 513, 1000, 100000}) {
    const GemmKPlan p = gemm_k_plan(k);
    ASSERT_GE(p.count, 1);
    // Chunks tile [0, k): count-1 full chunks plus a non-empty tail.
    EXPECT_LT(p.chunk * (p.count - 1), k) << k;
    EXPECT_GE(p.chunk * p.count, k) << k;
    // Pure function: recomputing yields the identical plan.
    EXPECT_EQ(p, gemm_k_plan(k));
  }
}

TEST(GemmProperty, ChunkedProductEqualsFixedTreeOfSingleChunkProducts) {
  ThreadGuard guard;
  auto problems = edge_problems();
  const auto extra = random_problems(8, 20240807);
  problems.insert(problems.end(), extra.begin(), extra.end());
  for (const Problem& p : problems) {
    SCOPED_TRACE("m=" + std::to_string(p.m) + " n=" + std::to_string(p.n) +
                 " k=" + std::to_string(p.k));
    Rng rng(static_cast<std::uint64_t>(p.m * 131071 + p.n * 8191 + p.k));
    const auto a = random_matrix(p.m * std::max<std::int64_t>(p.k, 1), rng);
    const auto b = random_matrix(std::max<std::int64_t>(p.k, 1) * p.n, rng);
    const std::vector<float> ref =
        tree_of_single_chunk_gemms(p.m, p.n, p.k, a.data(), b.data());
    for (int threads : {1, 2, 4, 8, 16}) {
      ThreadPool::set_global_threads(threads);
      std::vector<float> c(static_cast<std::size_t>(p.m * p.n), -7.0f);
      gemm({.m = p.m, .n = p.n, .k = p.k, .a = a.data(), .b = b.data(),
            .c = c.data()});
      EXPECT_TRUE(bytes_equal(ref, c)) << threads << " threads";
    }
  }
}

TEST(GemmProperty, MatchesNaiveDoubleReferenceWithinRounding) {
  ThreadGuard guard;
  for (const Problem& p : edge_problems()) {
    SCOPED_TRACE("m=" + std::to_string(p.m) + " n=" + std::to_string(p.n) +
                 " k=" + std::to_string(p.k));
    Rng rng(static_cast<std::uint64_t>(p.m * 31 + p.n * 977 + p.k + 5));
    const auto a = random_matrix(p.m * std::max<std::int64_t>(p.k, 1), rng);
    const auto b = random_matrix(std::max<std::int64_t>(p.k, 1) * p.n, rng);
    std::vector<float> c(static_cast<std::size_t>(p.m * p.n));
    std::vector<double> ref(c.size());
    gemm({.m = p.m, .n = p.n, .k = p.k, .a = a.data(), .b = b.data(),
          .c = c.data()});
    naive_gemm_double(p.m, p.n, p.k, a.data(), b.data(), ref.data());
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], ref[i], 1e-3 * (1.0 + std::abs(ref[i]))) << i;
  }
}

// Every GemmOp form, bit-identical across thread counts 1/2/4/8/16, on
// a cold, a warm and a stale workspace (testing/gemm_forms.h). The
// serial (1-thread) bytes are the canonical reference for each form.
TEST(GemmProperty, AllVariantsBitIdenticalAcrossThreadsAndScratch) {
  ThreadGuard guard;
  const std::vector<Problem> problems = {
      {8, 96, 1500},   // tall-K inner-product shape: K-parallel engages
      {130, 48, 700},  // several M blocks and several K chunks
      {3, 33, 257},    // chunk + 1
      {70, 20, 64},    // single-chunk plan: the legacy path
      // Narrow N; trans_b forms of the first three run as the
      // transposed product (N*K > M*K + M*N).
      {8, 9, 4096},
      {1, 17, 257},
      {3, 5, 256},
      {65, 16, 255},
  };
  for (const Problem& p : problems) {
    SCOPED_TRACE("m=" + std::to_string(p.m) + " n=" + std::to_string(p.n) +
                 " k=" + std::to_string(p.k));
    Rng rng(static_cast<std::uint64_t>(p.m + p.n * 53 + p.k * 10007));
    const auto a = random_matrix(p.m * p.k, rng);
    const auto b = random_matrix(p.k * p.n, rng);        // [K,N]
    const auto a_t = random_matrix(p.k * p.m, rng);      // [K,M] for trans_a
    const auto b_t = random_matrix(p.n * p.k, rng);      // [N,K] for trans_b
    const auto row_bias = random_matrix(p.m, rng);
    const auto col_bias = random_matrix(p.n, rng);
    std::vector<float> c_seed(static_cast<std::size_t>(p.m * p.n));
    for (std::size_t e = 0; e < c_seed.size(); ++e)
      c_seed[e] = 0.25f * static_cast<float>(e % 17);
    const testing::GemmOperands x{
        .m = p.m, .n = p.n, .k = p.k, .a = a.data(), .a_t = a_t.data(),
        .b = b.data(), .b_t = b_t.data(), .row_bias = row_bias.data(),
        .col_bias = col_bias.data(), .c_seed = c_seed.data()};

    for (const testing::GemmForm& form : testing::all_gemm_forms()) {
      SCOPED_TRACE(testing::form_name(form));
      ThreadPool::set_global_threads(1);
      const std::vector<float> ref = testing::run_form(form, x);
      for (int threads : {1, 2, 4, 8, 16}) {
        ThreadPool::set_global_threads(threads);
        EXPECT_TRUE(bytes_equal(ref, testing::on_fresh_thread([&] {
          return testing::run_form(form, x);
        }))) << threads << " threads (cold)";
        EXPECT_TRUE(bytes_equal(ref, testing::run_form(form, x)))
            << threads << " threads";
        EXPECT_TRUE(bytes_equal(ref, testing::run_form(form, x)))
            << threads << " threads (warm)";
        testing::dirty_gemm_workspace();
        EXPECT_TRUE(bytes_equal(ref, testing::run_form(form, x)))
            << threads << " threads (stale)";
      }
    }
  }
}

// The transposed forms must agree byte-for-byte with the plain form on
// materialized operands, overwriting and accumulating: trans_a and the
// wide trans_b shapes share gemm_impl with it, and a trans_b shape with
// N*K > M*K + M*N runs as C^T = B*A^T, whose per-element folds are the
// same fused products in the same order. Either bias is one float add
// onto the finished tree result, whatever the operand layout. Shapes:
// chunked K with wide N, then narrow N around the chunk width and at a
// tall K, on both sides of the shape rule.
TEST(GemmProperty, TransposeVariantsMatchPlainKernelBytes) {
  ThreadGuard guard;
  const std::vector<Problem> problems = {
      {13, 41, 600}, {8, 9, 4096}, {1, 17, 257}, {5, 16, 255},
      {17, 3, 256},  {2, 8, 256},  {64, 7, 4096}, {9, 9, 300},
  };
  for (const Problem& p : problems) {
    SCOPED_TRACE("m=" + std::to_string(p.m) + " n=" + std::to_string(p.n) +
                 " k=" + std::to_string(p.k));
    Rng rng(static_cast<std::uint64_t>(99 + p.m * 7 + p.n * 131 + p.k));
    const auto a_t = random_matrix(p.k * p.m, rng);  // [K,M]
    const auto b_t = random_matrix(p.n * p.k, rng);  // [N,K]
    std::vector<float> a(static_cast<std::size_t>(p.m * p.k));
    std::vector<float> b(static_cast<std::size_t>(p.k * p.n));
    for (std::int64_t q = 0; q < p.k; ++q)
      for (std::int64_t i = 0; i < p.m; ++i) a[i * p.k + q] = a_t[q * p.m + i];
    for (std::int64_t j = 0; j < p.n; ++j)
      for (std::int64_t q = 0; q < p.k; ++q) b[q * p.n + j] = b_t[j * p.k + q];

    const std::size_t elems = static_cast<std::size_t>(p.m * p.n);
    const auto old_c = random_matrix(p.m * p.n, rng);
    for (bool accumulate : {false, true}) {
      SCOPED_TRACE(accumulate ? "accumulate" : "overwrite");
      std::vector<float> plain = old_c, via_at = old_c, via_bt = old_c;
      gemm({.m = p.m, .n = p.n, .k = p.k, .a = a.data(), .b = b.data(),
            .c = plain.data(), .accumulate = accumulate});
      gemm({.m = p.m, .n = p.n, .k = p.k, .a = a_t.data(), .trans_a = true,
            .b = b.data(), .c = via_at.data(), .accumulate = accumulate});
      gemm({.m = p.m, .n = p.n, .k = p.k, .a = a.data(), .b = b_t.data(),
            .trans_b = true, .c = via_bt.data(), .accumulate = accumulate});
      EXPECT_TRUE(bytes_equal(plain, via_at));
      EXPECT_TRUE(bytes_equal(plain, via_bt));

      const auto row_bias = random_matrix(p.m, rng);
      const auto col_bias = random_matrix(p.n, rng);
      std::vector<float> want_row(elems), want_col(elems);
      for (std::int64_t i = 0; i < p.m; ++i)
        for (std::int64_t j = 0; j < p.n; ++j) {
          want_row[i * p.n + j] = plain[i * p.n + j] + row_bias[i];
          want_col[i * p.n + j] = plain[i * p.n + j] + col_bias[j];
        }
      for (bool trans_b : {false, true}) {
        SCOPED_TRACE(trans_b ? "trans_b" : "trans_a");
        std::vector<float> row = old_c, col = old_c;
        GemmOp op{.m = p.m, .n = p.n, .k = p.k, .a = a_t.data(),
                  .trans_a = true, .b = b.data(), .c = row.data(),
                  .accumulate = accumulate, .bias = row_bias.data()};
        if (trans_b) {
          op.a = a.data();
          op.trans_a = false;
          op.b = b_t.data();
          op.trans_b = true;
        }
        gemm(op);
        op.c = col.data();
        op.bias = col_bias.data();
        op.bias_axis = BiasAxis::kCol;
        gemm(op);
        EXPECT_TRUE(bytes_equal(want_row, row));
        EXPECT_TRUE(bytes_equal(want_col, col));
      }
    }
  }
}

// The accumulate contract of gemm.h, against a standalone std::fmaf
// reference rather than the kernel itself: a single-chunk plan (K <=
// kGemmKChunk) seeds each element's fused-multiply-add fold with the old
// C; a chunked plan folds every chunk from zero, merges the fixed tree,
// and adds the old C once. The old C is large next to the products, so
// the two forms round apart and each check can tell them from the other.
TEST(GemmProperty, AccumulateSeedsSingleChunkFoldAndAddsOldCAfterTree) {
  ThreadGuard guard;
  // C[i][j] = sum over K range [p0, p1) as a fused fold from `seed`.
  const auto fold = [](const std::vector<float>& a,
                       const std::vector<float>& b, std::int64_t n,
                       std::int64_t k, std::int64_t i, std::int64_t j,
                       std::int64_t p0, std::int64_t p1, float seed) {
    float acc = seed;
    for (std::int64_t p = p0; p < p1; ++p)
      acc = std::fmaf(a[static_cast<std::size_t>(i * k + p)],
                      b[static_cast<std::size_t>(p * n + j)], acc);
    return acc;
  };
  // m = 4 puts the trans_b form on the transposed product, m = 70 on
  // the materialized B^T.
  const std::int64_t n = 19;
  const std::int64_t shapes[][2] = {{70, kGemmKChunk},
                                    {70, 3 * kGemmKChunk + 5},
                                    {4, kGemmKChunk},
                                    {4, 3 * kGemmKChunk + 5}};
  for (const auto& [m, k] : shapes) {
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k));
    const GemmKPlan plan = gemm_k_plan(k);
    Rng rng(static_cast<std::uint64_t>(k));
    const auto a = random_matrix(m * k, rng);
    const auto b = random_matrix(k * n, rng);
    std::vector<float> old_c(static_cast<std::size_t>(m * n));
    for (float& v : old_c) v = 1000.0f + static_cast<float>(rng.uniform(0, 1));

    std::vector<float> seeded(old_c.size()), tree_plus_c(old_c.size());
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) {
        const std::size_t e = static_cast<std::size_t>(i * n + j);
        seeded[e] = fold(a, b, n, k, i, j, 0, k, old_c[e]);
        std::vector<float> parts;
        for (std::int64_t c = 0; c < plan.count; ++c)
          parts.push_back(fold(a, b, n, k, i, j, c * plan.chunk,
                               std::min(k, (c + 1) * plan.chunk), 0.0f));
        for (std::int64_t stride = 1; stride < plan.count; stride *= 2)
          for (std::int64_t lo = 0; lo + stride < plan.count; lo += 2 * stride)
            parts[static_cast<std::size_t>(lo)] +=
                parts[static_cast<std::size_t>(lo + stride)];
        tree_plus_c[e] = old_c[e] + parts.front();
      }
    ASSERT_FALSE(bytes_equal(seeded, tree_plus_c));
    const std::vector<float>& want = plan.count == 1 ? seeded : tree_plus_c;
    std::vector<float> b_t(b.size());  // B stored [N,K]
    for (std::int64_t p = 0; p < k; ++p)
      for (std::int64_t j = 0; j < n; ++j)
        b_t[static_cast<std::size_t>(j * k + p)] =
            b[static_cast<std::size_t>(p * n + j)];
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      std::vector<float> c = old_c;
      gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
            .c = c.data(), .accumulate = true});
      EXPECT_TRUE(bytes_equal(want, c)) << threads << " threads";
      std::vector<float> ct = old_c;
      gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b_t.data(),
            .trans_b = true, .c = ct.data(), .accumulate = true});
      EXPECT_TRUE(bytes_equal(want, ct)) << threads << " threads (trans_b)";
    }
  }
}

}  // namespace
}  // namespace qnn
