// Accumulator-bound pass of the native integer path (DESIGN.md §15).
//
// For every conv / inner-product stage, freeze_inference() bounds the
// worst-case accumulator from three inputs: the stage's actual encoded
// weight words (sum |w| per output row), the raw range of its input
// site's format, and its aligned bias. The bound picks the integer
// kernel tier it proves exact — accumulator width as the lever, the way
// concrete-ml tracks per-layer accumulator bitwidth and Moons et al.
// treat it as an energy knob. A stage whose bound fails keeps the exact
// int64 scalar tier and records why; it never leaves the native path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fixed/fixed_format.h"

namespace qnn::quant {

enum class IntTier {
  kDot8,     // int8: u8 x s8 quads into int32 lanes (vpdpbusd)
  kMadd16,   // int16: madd pair sums into int32, widened to int64
  kExact64,  // scalar int64 accumulation: exact for any words
};

const char* int_tier_name(IntTier tier);

struct AccBound {
  // max over rows of  max|a| * sum_p |w_p| + |bias|: the accumulator
  // the stage computes, whatever the kernel.
  std::int64_t max_abs = 0;
  // max over rows of (a_max + 128) * sum_p |w_p|: bounds every partial
  // sum of the int8 tier's offset accumulator sum_p (a_p + 128) * w_p.
  std::int64_t max_offset = 0;
  // Some weight equals the word type's minimum (-128 / -32768).
  bool has_min_word = false;

  // Bits of a two's-complement register that holds +-max_abs.
  int bits() const;
};

// `rows` x `k` weight words (row-major), activations anywhere in `in`'s
// raw range, bias_terms (aligned to the accumulator; null = no bias).
AccBound bound_accumulator(std::int64_t rows, std::int64_t k,
                           const std::int8_t* w, const FixedPointFormat& in,
                           const std::int64_t* bias_terms);
AccBound bound_accumulator(std::int64_t rows, std::int64_t k,
                           const std::int16_t* w, const FixedPointFormat& in,
                           const std::int64_t* bias_terms);

// Where a stage's tiles finish: kI32 keeps the accumulator in the int32
// lanes through the requant (IntEpilogue::i32), kI64 widens first.
enum class IntEpilogueWidth { kI32, kI64 };

const char* int_epilogue_name(IntEpilogueWidth width);  // "i32" | "i64"

// kI32 when the tier is kDot8, the requant shift is at most 30 and
// max_abs plus the requant's rounding half (2^(shift-1), 0 for shift <=
// 0) is below 2^31; kI64 otherwise.
IntEpilogueWidth choose_int_epilogue(IntTier tier, const AccBound& bound,
                                     int requant_shift);

// The tier `bound` proves exact for `word_bits`-bit words: kDot8 while
// the offset accumulator fits int32, kMadd16 unless a weight is -32768
// (a pair of (-32768)^2 products is the one pair sum beyond int32).
// Otherwise kExact64, with the reason in *reason.
IntTier choose_int_tier(int word_bits, const AccBound& bound,
                        std::string* reason);

// One conv / inner-product stage of a frozen native engine.
struct IntStagePlan {
  std::size_t layer = 0;  // network layer index
  std::string kind;       // "conv" | "ip"
  int word_bits = 8;
  IntTier tier = IntTier::kExact64;
  int acc_bits = 0;         // AccBound::bits()
  bool fused_relu = false;  // the next layer's ReLU runs in the epilogue
  std::string fallback;     // why tier is kExact64; empty otherwise
  IntEpilogueWidth epilogue = IntEpilogueWidth::kI64;
};

struct IntPathPlan {
  std::vector<IntStagePlan> stages;
};

}  // namespace qnn::quant
