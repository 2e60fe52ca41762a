// Native integer GEMM (DESIGN.md §15).
//
// Operand packing and the one sharded driver for the integer tile
// kernels (tensor/microkernel): C[M,N] = A[M,K] * B[N,K]^T in the
// *dot-product layout* — both operands row-contiguous over K.
// InnerProduct weights are already stored [Out, In], and conv lowers to
// an im2row patch matrix [OHW, Cin*K*K] against weights [Cout, Cin*K*K],
// so neither side needs a transpose; packing only regroups K into 4-byte
// groups and the B side into kIntPanel-column panels.
//
// Every result is exact, so NO accumulation-order contract is needed:
// any panel sharding, lane order or SIMD level yields the same words,
// as long as the tier's accumulator bound holds. quant/acc_bound alone
// proves it: bound_accumulator -> choose_int_tier gives the tier (and,
// for int16, AccBound::k_block the int32 block), and the caller runs the
// exact-i64 tier at the scalar level.
#pragma once

#include <cstdint>
#include <limits>

#include "tensor/microkernel.h"

namespace qnn {

template <typename WordT>
inline constexpr IntBody int_body =
    sizeof(WordT) == 1 ? IntBody::kS8 : IntBody::kS16;

// Words per 4-byte K group.
template <typename WordT>
inline constexpr std::int64_t int_group_words =
    kIntGroupBytes / static_cast<std::int64_t>(sizeof(WordT));

// K groups of a k-long row, and the words of one packed A row / B panel.
template <typename WordT>
constexpr std::int64_t int_groups(std::int64_t k) {
  return (k + int_group_words<WordT> - 1) / int_group_words<WordT>;
}
template <typename WordT>
constexpr std::int64_t int_row_words(std::int64_t k) {
  return int_groups<WordT>(k) * int_group_words<WordT>;
}
template <typename WordT>
constexpr std::int64_t int_panel_words(std::int64_t k) {
  return int_row_words<WordT>(k) * kIntPanel;
}
constexpr std::int64_t int_panels(std::int64_t n) {
  return (n + kIntPanel - 1) / kIntPanel;
}

// The packed form of raw word w. An int8 activation (offset) becomes the
// u8 w + 128, which is the same byte with its sign bit flipped.
template <typename WordT>
constexpr WordT int_pack_word(WordT w, bool offset) {
  return offset ? static_cast<WordT>(w ^ std::numeric_limits<WordT>::min())
                : w;
}

// Packs `rows` x `k` words (row stride ld) as kernel A rows.
template <typename WordT>
void pack_int_rows(std::int64_t rows, std::int64_t k, const WordT* src,
                   std::int64_t ld, bool offset, WordT* dst) {
  const std::int64_t stride = int_row_words<WordT>(k);
  const WordT zero = int_pack_word<WordT>(0, offset);
  for (std::int64_t r = 0; r < rows; ++r) {
    const WordT* s = src + r * ld;
    WordT* d = dst + r * stride;
    for (std::int64_t p = 0; p < k; ++p) d[p] = int_pack_word(s[p], offset);
    for (std::int64_t p = k; p < stride; ++p) d[p] = zero;
  }
}

// Packs `n` x `k` words (row stride ld), one row per output column, as
// kernel B panels.
template <typename WordT>
void pack_int_panels(std::int64_t n, std::int64_t k, const WordT* src,
                     std::int64_t ld, bool offset, WordT* dst) {
  constexpr std::int64_t per = int_group_words<WordT>;
  const std::int64_t padded = int_row_words<WordT>(k);
  const WordT zero = int_pack_word<WordT>(0, offset);
  for (std::int64_t j = 0; j < int_panels(n) * kIntPanel; ++j) {
    WordT* d = dst + (j / kIntPanel) * padded * kIntPanel +
               (j % kIntPanel) * per;
    for (std::int64_t p = 0; p < padded; ++p)
      d[(p / per) * kIntPanel * per + p % per] =
          j < n && p < k ? int_pack_word(src[j * ld + p], offset) : zero;
  }
}

// Runs `job` with its panels sharded across the global pool: the one
// driver over packed operands (conv stages, which pack one panel per
// work item, call int_tiles per panel instead).
void int_gemm_packed(SimdLevel level, const IntTileJob& job);

}  // namespace qnn
