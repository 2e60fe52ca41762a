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
//
// The int16 tier accumulates pair sums in int32 lanes over aligned
// blocks of K and widens to int64 once per block. The block is the
// longest one whose bound max|a| * sum|w| (bias excluded: it joins in
// the epilogue) fits int32 for every row of the stage, so fixed16
// stages, whose weight words fill their 16-bit range, get short blocks
// and binary stages (sum|w| = K) accumulate the whole K in int32.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fixed/fixed_format.h"

namespace qnn::quant {

enum class IntTier {
  kDot8,           // int8: u8 x s8 quads into int32 lanes (vpdpbusd)
  kMadd16Blocked,  // int16: madd pair sums into int32 over K blocks
  kExact64,        // scalar int64 accumulation: exact for any words
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
  // int16 words: K pairs (2-word groups) per row, and the longest
  // aligned block of pairs the int32 lanes hold (int32_block_pairs);
  // k_block == k_pairs when the whole K is one block.
  std::int64_t k_pairs = 0;
  std::int64_t k_block = 0;

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

// The longest block length B, in K pairs, such that for every one of
// `rows` rows of `k` int16 words and every aligned block [jB, (j+1)B)
// of its pairs, a_abs * sum |w| over the block's words is at most
// INT32_MAX: the int32 lanes then hold every partial sum of the block.
// Blocks need not nest, so every B is tried: the whole K first, then
// every length against each row until it fails (at most
// rows * pairs * ln(pairs) steps; a fixed16 row leaves one or two
// lengths live). 0 when not even one pair fits.
std::int64_t int32_block_pairs(std::int64_t rows, std::int64_t k,
                               const std::int16_t* w, std::int64_t a_abs);

// Where a stage's tiles finish: kI32 keeps the accumulator in the int32
// lanes through the requant (IntEpilogue::i32), kI64 widens first.
enum class IntEpilogueWidth { kI32, kI64 };

const char* int_epilogue_name(IntEpilogueWidth width);  // "i32" | "i64"

// kI32 when the int32 lanes hold the whole K (the kDot8 tier, or
// kMadd16Blocked with one block) and then either `scaled` is set — a
// binary stage, whose double step (IntScaledRequant) reads the lanes
// and adds nothing in int32 — or the requant shift is at most 30 and
// max_abs plus the requant's rounding half (2^(shift-1), 0 for shift <=
// 0) is below 2^31; kI64 otherwise.
IntEpilogueWidth choose_int_epilogue(IntTier tier, const AccBound& bound,
                                     int requant_shift, bool scaled);

// The tier `bound` proves exact for `word_bits`-bit words: kDot8 while
// the offset accumulator fits int32; kMadd16Blocked when no weight is
// -32768 and at least one pair fits int32 (then every pair does: the
// largest pair bound, 2^15 * 2 * 32767, is below 2^31). Otherwise
// kExact64, with the reason in *reason.
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
  // kMadd16Blocked: K pairs per int32 block; the whole K (ceil(K / 2))
  // when one block holds it. 0 for the other tiers.
  std::int64_t k_block = 0;
};

struct IntPathPlan {
  std::vector<IntStagePlan> stages;
};

}  // namespace qnn::quant
