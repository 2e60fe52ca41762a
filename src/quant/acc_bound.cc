#include "quant/acc_bound.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <vector>

namespace qnn::quant {

const char* int_tier_name(IntTier tier) {
  switch (tier) {
    case IntTier::kDot8: return "s8dot-i32";
    case IntTier::kMadd16Blocked: return "s16madd-i32blocked";
    case IntTier::kExact64: return "exact-i64";
  }
  return "?";
}

const char* int_epilogue_name(IntEpilogueWidth width) {
  return width == IntEpilogueWidth::kI32 ? "i32" : "i64";
}

int AccBound::bits() const {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(max_abs))) +
         1;
}

namespace {

template <typename WordT>
AccBound bound_impl(std::int64_t rows, std::int64_t k, const WordT* w,
                    const FixedPointFormat& in,
                    const std::int64_t* bias_terms) {
  const std::int64_t a_abs = std::max(-in.raw_min(), in.raw_max());
  const std::int64_t a_offset = in.raw_max() + 128;
  AccBound b;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t abs_sum = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int64_t v = w[r * k + p];
      abs_sum += v < 0 ? -v : v;
      if (v == std::numeric_limits<WordT>::min()) b.has_min_word = true;
    }
    const std::int64_t bias =
        bias_terms != nullptr ? std::abs(bias_terms[r]) : 0;
    b.max_abs = std::max(b.max_abs, a_abs * abs_sum + bias);
    b.max_offset = std::max(b.max_offset, a_offset * abs_sum);
  }
  return b;
}

}  // namespace

std::int64_t int32_block_pairs(std::int64_t rows, std::int64_t k,
                               const std::int16_t* w, std::int64_t a_abs) {
  const std::int64_t pairs = (k + 1) / 2;
  if (pairs == 0) return 0;
  const std::int64_t limit =
      std::numeric_limits<std::int32_t>::max() / std::max<std::int64_t>(a_abs, 1);
  const auto abs_word = [](std::int16_t v) {
    return v < 0 ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
  };
  // The whole K first: one pass, and the answer for every binary stage.
  std::int64_t max_row = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t sum = 0;
    for (std::int64_t p = 0; p < k; ++p) sum += abs_word(w[r * k + p]);
    max_row = std::max(max_row, sum);
  }
  if (max_row <= limit) return pairs;
  // The block lengths whose every aligned block fits in the rows seen so
  // far, ascending; the first row usually leaves a handful.
  std::vector<std::int64_t> alive(static_cast<std::size_t>(pairs));
  for (std::int64_t b = 1; b <= pairs; ++b)
    alive[static_cast<std::size_t>(b - 1)] = b;
  std::vector<std::int64_t> prefix(static_cast<std::size_t>(pairs + 1), 0);
  for (std::int64_t r = 0; r < rows && !alive.empty(); ++r) {
    const std::int16_t* row = w + r * k;
    for (std::int64_t q = 0; q < k / 2; ++q)
      prefix[static_cast<std::size_t>(q + 1)] =
          prefix[static_cast<std::size_t>(q)] + abs_word(row[2 * q]) +
          abs_word(row[2 * q + 1]);
    if (k % 2 != 0)
      prefix[static_cast<std::size_t>(pairs)] =
          prefix[static_cast<std::size_t>(pairs - 1)] + abs_word(row[k - 1]);
    std::erase_if(alive, [&](std::int64_t b) {
      for (std::int64_t q = 0; q < pairs; q += b) {
        const std::int64_t end = std::min(q + b, pairs);
        if (prefix[static_cast<std::size_t>(end)] -
                prefix[static_cast<std::size_t>(q)] >
            limit)
          return true;
      }
      return false;
    });
  }
  return alive.empty() ? 0 : alive.back();
}

AccBound bound_accumulator(std::int64_t rows, std::int64_t k,
                           const std::int8_t* w, const FixedPointFormat& in,
                           const std::int64_t* bias_terms) {
  return bound_impl(rows, k, w, in, bias_terms);
}

AccBound bound_accumulator(std::int64_t rows, std::int64_t k,
                           const std::int16_t* w, const FixedPointFormat& in,
                           const std::int64_t* bias_terms) {
  AccBound b = bound_impl(rows, k, w, in, bias_terms);
  b.k_pairs = (k + 1) / 2;
  b.k_block = int32_block_pairs(rows, k, w,
                                std::max(-in.raw_min(), in.raw_max()));
  return b;
}

IntEpilogueWidth choose_int_epilogue(IntTier tier, const AccBound& bound,
                                     int requant_shift, bool scaled) {
  const bool whole_k =
      tier == IntTier::kDot8 ||
      (tier == IntTier::kMadd16Blocked && bound.k_block > 0 &&
       bound.k_block == bound.k_pairs);
  if (!whole_k) return IntEpilogueWidth::kI64;
  if (scaled) return IntEpilogueWidth::kI32;
  if (requant_shift > 30) return IntEpilogueWidth::kI64;
  const std::int64_t half =
      requant_shift > 0 ? std::int64_t{1} << (requant_shift - 1) : 0;
  return bound.max_abs + half <= std::numeric_limits<std::int32_t>::max()
             ? IntEpilogueWidth::kI32
             : IntEpilogueWidth::kI64;
}

IntTier choose_int_tier(int word_bits, const AccBound& bound,
                        std::string* reason) {
  if (word_bits <= 8) {
    if (bound.max_offset <= std::numeric_limits<std::int32_t>::max())
      return IntTier::kDot8;
    *reason = "int8 offset accumulator bound ";
    *reason += std::to_string(bound.max_offset);
    *reason += " exceeds int32";
    return IntTier::kExact64;
  }
  if (bound.has_min_word) {
    *reason = "weight word -32768: a madd pair of two (-32768)^2 products "
              "overflows int32";
    return IntTier::kExact64;
  }
  if (bound.k_block == 0) {
    *reason = "no K pair of the int16 accumulator fits int32";
    return IntTier::kExact64;
  }
  return IntTier::kMadd16Blocked;
}

}  // namespace qnn::quant
