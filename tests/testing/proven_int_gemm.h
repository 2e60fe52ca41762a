// C[M,N] (int64) = A[M,K] * B[N,K]^T through the production chooser,
// for harnesses that feed the integer tiles raw words: B is bounded as
// weights against activations anywhere in A's word range
// (quant::bound_accumulator), quant::choose_int_tier picks the tier and
// AccBound::k_block the int16 block, both operands are packed the way
// the engine packs an inner product (A rows offset for int8), and
// int_gemm_packed runs the active level — the scalar level when the
// tier is exact-i64. Exact for any words.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fixed/fixed_format.h"
#include "quant/acc_bound.h"
#include "tensor/int_gemm.h"
#include "tensor/microkernel.h"

namespace qnn::testing {

// Returns B's bound: an int16 run whose bound has no -32768 word and
// k_block < k_pairs took the blocked tiles at the vector levels.
template <typename WordT>
quant::AccBound proven_int_gemm(std::int64_t m, std::int64_t n,
                                std::int64_t k, const WordT* a,
                                const WordT* b, std::int64_t* c) {
  constexpr bool kS8 = sizeof(WordT) == 1;
  constexpr int kBits = 8 * static_cast<int>(sizeof(WordT));
  const quant::AccBound bound = quant::bound_accumulator(
      n, k, b, FixedPointFormat(kBits, 0), /*bias_terms=*/nullptr);
  std::string reason;
  const quant::IntTier tier = quant::choose_int_tier(kBits, bound, &reason);

  std::vector<WordT> pa(static_cast<std::size_t>(m * int_row_words<WordT>(k)));
  std::vector<WordT> pb(
      static_cast<std::size_t>(int_panels(n) * int_panel_words<WordT>(k)));
  pack_int_rows(m, k, a, k, /*offset=*/kS8, pa.data());
  pack_int_panels(n, k, b, k, /*offset=*/false, pb.data());
  // The int8 offset adds 128 * sum(b_j) to column j.
  std::vector<std::int64_t> col_add(kS8 ? static_cast<std::size_t>(n) : 0);
  for (std::int64_t j = 0; j < static_cast<std::int64_t>(col_add.size()); ++j)
    for (std::int64_t p = 0; p < k; ++p)
      col_add[static_cast<std::size_t>(j)] -= 128 * b[j * k + p];

  IntTileJob job;
  job.body = int_body<WordT>;
  job.a_unsigned = true;
  job.m = m;
  job.n = n;
  job.groups = int_groups<WordT>(k);
  job.k_block = std::max<std::int64_t>(bound.k_block, 1);
  job.a = pa.data();
  job.b = pb.data();
  job.epi.col_add = kS8 ? col_add.data() : nullptr;
  job.epi.out = c;
  job.epi.ldo = n;
  int_gemm_packed(tier == quant::IntTier::kExact64 ? SimdLevel::kScalar
                                                   : active_simd_level(),
                  job);
  return bound;
}

}  // namespace qnn::testing
