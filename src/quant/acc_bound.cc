#include "quant/acc_bound.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>

namespace qnn::quant {

const char* int_tier_name(IntTier tier) {
  switch (tier) {
    case IntTier::kDot8: return "s8dot-i32";
    case IntTier::kMadd16: return "s16madd-i64";
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

AccBound bound_accumulator(std::int64_t rows, std::int64_t k,
                           const std::int8_t* w, const FixedPointFormat& in,
                           const std::int64_t* bias_terms) {
  return bound_impl(rows, k, w, in, bias_terms);
}

AccBound bound_accumulator(std::int64_t rows, std::int64_t k,
                           const std::int16_t* w, const FixedPointFormat& in,
                           const std::int64_t* bias_terms) {
  return bound_impl(rows, k, w, in, bias_terms);
}

IntEpilogueWidth choose_int_epilogue(IntTier tier, const AccBound& bound,
                                     int requant_shift) {
  if (tier != IntTier::kDot8 || requant_shift > 30)
    return IntEpilogueWidth::kI64;
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
  if (!bound.has_min_word) return IntTier::kMadd16;
  *reason = "weight word -32768: a madd pair of two (-32768)^2 products "
            "overflows int32";
  return IntTier::kExact64;
}

}  // namespace qnn::quant
