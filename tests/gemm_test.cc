#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "tensor/gemm.h"
#include "util/check.h"
#include "util/rng.h"

namespace qnn {
namespace {

void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                const float* a, const float* b, double* c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = acc;
    }
}

std::vector<float> random_matrix(std::int64_t elems, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(elems));
  for (float& x : v) x = static_cast<float>(rng.uniform(-1, 1));
  return v;
}

TEST(Gemm, TinyKnownValues) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4];
  gemm({.m = 2, .n = 2, .k = 2, .a = a, .b = b, .c = c});
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, AccumulateAddsToExisting) {
  const float a[] = {1, 0, 0, 1};
  const float b[] = {2, 3, 4, 5};
  float c[] = {10, 10, 10, 10};
  gemm({.m = 2, .n = 2, .k = 2, .a = a, .b = b, .c = c, .accumulate = true});
  EXPECT_FLOAT_EQ(c[0], 12);
  EXPECT_FLOAT_EQ(c[3], 15);
}

class GemmSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
  const auto a = random_matrix(static_cast<std::int64_t>(m) * k, rng);
  const auto b = random_matrix(static_cast<std::int64_t>(k) * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  std::vector<double> ref(static_cast<std::size_t>(m) * n);
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(), .c = c.data()});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-3 * (1 + std::abs(ref[i])))
        << "at " << i << " for " << m << "x" << n << "x" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 7, 3),
                      std::make_tuple(5, 1, 9), std::make_tuple(4, 4, 4),
                      std::make_tuple(3, 5, 2), std::make_tuple(17, 19, 23),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 63, 70),
                      std::make_tuple(128, 300, 257),
                      std::make_tuple(10, 1024, 50)));

TEST(Gemm, TransposedAVariant) {
  // A stored [K, M]: A^T = [1 3; 2 4]^T ... verify against explicit.
  Rng rng(5);
  const int m = 13, n = 9, k = 21;
  const auto a_t = random_matrix(k * m, rng);  // stored [K, M]
  const auto b = random_matrix(k * n, rng);
  // Materialize A for the reference.
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  for (int p = 0; p < k; ++p)
    for (int i = 0; i < m; ++i) a[i * k + p] = a_t[p * m + i];
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  std::vector<double> ref(static_cast<std::size_t>(m) * n);
  gemm({.m = m, .n = n, .k = k, .a = a_t.data(), .trans_a = true,
        .b = b.data(), .c = c.data()});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3);
}

TEST(Gemm, TransposedBVariant) {
  Rng rng(6);
  const int m = 11, n = 17, k = 8;
  const auto a = random_matrix(m * k, rng);
  const auto b_t = random_matrix(n * k, rng);  // stored [N, K]
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (int j = 0; j < n; ++j)
    for (int p = 0; p < k; ++p) b[p * n + j] = b_t[j * k + p];
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  std::vector<double> ref(static_cast<std::size_t>(m) * n);
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b_t.data(),
        .trans_b = true, .c = c.data()});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3);
}

TEST(Gemm, TransposedBAccumulate) {
  Rng rng(7);
  const int m = 6, n = 10, k = 12;
  const auto a = random_matrix(m * k, rng);
  const auto b_t = random_matrix(n * k, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 1.0f);
  std::vector<float> expect(c);
  std::vector<float> delta(static_cast<std::size_t>(m) * n);
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b_t.data(),
        .trans_b = true, .c = delta.data()});
  for (std::size_t i = 0; i < c.size(); ++i) expect[i] += delta[i];
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b_t.data(),
        .trans_b = true, .c = c.data(), .accumulate = true});
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expect[i], 1e-4);
}

// gemm's workspace holds one transpose buffer, so an op may transpose at
// most one operand.
TEST(Gemm, RejectsBothOperandsTransposed) {
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4] = {};
  EXPECT_THROW(gemm({.m = 2, .n = 2, .k = 2, .a = a, .trans_a = true, .b = b,
                     .trans_b = true, .c = c}),
               CheckError);
}

}  // namespace
}  // namespace qnn
