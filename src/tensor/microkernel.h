// SIMD microkernels and runtime dispatch (DESIGN.md §15).
//
// Every float kernel here computes in the *canonical lane-striped order*
// that tensor/gemm.h defines: for a fixed output element, the K
// reduction is a serial left-fold of fused multiply-adds (one
// correctly-rounded rounding per step, std::fmaf == vfmadd231ps), and
// distinct output columns never mix — a vector register holds
// kGemmLanes consecutive columns j, j+1, ..., each accumulating its own
// element. Because lanes are independent and fma is correctly rounded by
// IEEE 754, the scalar fallback and the AVX2 kernel produce identical
// bytes by construction, not by codegen luck; the dispatch level is
// therefore free to differ between runs, builds, and machines without
// perturbing a single bit. Every level >= kAvx2 runs the AVX2 float
// kernel (there is no AVX-512 float tier).
//
// The integer kernels are one register-blocked family over packed
// operands (IntTileJob below), written once as a template over the
// vector width (tensor/int_tiles.h) and instantiated for scalar, AVX2
// and AVX-512BW+VNNI. Their results are exact, so they are word-stable
// at ANY lane, level or thread order — provided the accumulator bound
// the caller proved holds (quant/acc_bound): int8 runs u8 x s8 quads
// (`vpdpbusd`) into int32 lanes, exact while 255 * sum|w| < 2^31; int16
// accumulates `vpmaddwd` pair sums in int32 lanes (`vpdpwssd` at the
// AVX-512 level) over blocks of IntTileJob::k_block K pairs and widens
// to int64 once per block, exact while max|a| * sum|w| over every block
// fits int32. A one-pair block needs only that no weight is -32768
// (only (-32768)^2 + (-32768)^2 leaves int32). The scalar instantiation
// accumulates in int64 and is exact for any words: it is the reference
// and the fallback tier when a bound fails.
//
// Dispatch: the active level resolves once from QNN_SIMD ("off"/
// "scalar", "avx2", "avx512", "auto"/unset; anything else warns once and
// falls back to auto, through util/env) clamped to what CPUID reports,
// and can be forced programmatically for tests and benchmarks
// (ScopedSimdLevel; a force beyond the CPU warns once and clamps too).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

namespace qnn {

// Vector width of the float microkernel: one AVX2 register of floats.
// The lane stripe is a pure function of shape — column j lives in lane
// j mod kGemmLanes of its 8-column group — and carries no cross-lane
// float arithmetic, so it exists only as a layout, never as an order.
inline constexpr std::int64_t kGemmLanes = 8;

// Ordered: a CPU that supports a level supports every level below it.
enum class SimdLevel {
  kScalar = 0,  // portable fallback (fmaf per element, same order)
  kAvx2 = 1,    // AVX2 + FMA register-blocked kernels
  kAvx512 = 2,  // AVX-512BW + VNNI integer kernels (float stays AVX2)
};

const char* simd_level_name(SimdLevel level);

// Best level this CPU and build support (CPUID probe, cached).
SimdLevel simd_support();

// True when `level` can run here: level <= simd_support().
bool simd_supports(SimdLevel level);

// Resolves QNN_SIMD (util/env: "off"/"scalar", "avx2", "avx512";
// unset, empty or "auto" mean simd_support()) against simd_support().
// Reads the environment on every call; an unsupported request warns
// once per process and clamps.
SimdLevel resolve_simd_level();

// The level the kernels actually run at: a programmatic force when one
// is set, else the cached resolve_simd_level() result.
SimdLevel active_simd_level();

// Forces a level (tests/benches), clamped to simd_support() with a
// one-time warning; nullopt returns to env/CPUID resolution. Returns the
// previous forced state. Not thread-safe against in-flight kernels —
// switch between forwards, not during.
std::optional<SimdLevel> set_forced_simd_level(std::optional<SimdLevel> level);

// Drops the cached QNN_SIMD resolution so the next active_simd_level()
// re-reads the environment (dispatch tests setenv between checks).
void refresh_simd_env();

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(set_forced_simd_level(level)) {}
  ~ScopedSimdLevel() { set_forced_simd_level(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  std::optional<SimdLevel> previous_;
};

// ---------------------------------------------------------------------
// Float block kernel: C[mb,nb] += A[mb,kb] * B[kb,nb], row-major with
// leading dimensions lda/ldb/ldc. Per output element the K fold runs
// p = 0..kb-1 with one fused multiply-add per step — identical bytes at
// every level (see header comment). gemm.cc routes every cache block of
// every gemm variant through this entry.
void gemm_block_f32(SimdLevel level, std::int64_t mb, std::int64_t nb,
                    std::int64_t kb, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb, float* c,
                    std::int64_t ldc);

// ---------------------------------------------------------------------
// The float data path around the GEMM (DESIGN.md §9): vector forms of
// the im2col row copy and its col2im adjoint (tensor/im2col.cc) and the
// max-pool window scan (nn/pool.cc), whose scalar loops stay the
// references. They move and compare floats, and col2im adds each
// element once per K row as the scalar loop does, so every entry
// returns exactly its reference's bytes.

// One K row of a stride-1 im2col: out[y * ow + x] = plane[offset + y * w
// + x] for y in [y0, y1) and x in [x0, x1) — the taps inside the input
// plane — and 0 for every other (y, x) < (oh, ow).
struct Im2colRow {
  std::int64_t w = 0, oh = 0, ow = 0, offset = 0;
  std::int64_t y0 = 0, y1 = 0, x0 = 0, x1 = 0;
};

// The interior outputs [y0, y1) x [x0, x1) of one max-pool plane: those
// whose windows lie wholly inside the plane. Output (y, x) scans the
// kernel x kernel window at in-plane offset (y * stride - pad) * w +
// x * stride - pad in (row, column) order, seeded with its first cell,
// replacing the best on a strict `>` (ties keep the first cell, NaN
// never wins), and writes the value to out[y * ow + x] and, unless
// argmax is null, plane_base + the cell's offset to argmax[y * ow + x].
// stride is 1 or 2, and every in-plane offset fits in int32.
struct MaxPoolRect {
  const float* plane = nullptr;
  std::int64_t w = 0, ow = 0;
  std::int64_t kernel = 0, stride = 1, pad = 0;
  std::int64_t y0 = 0, y1 = 0, x0 = 0, x1 = 0;
  std::int64_t plane_base = 0;
};

struct F32VecOps {
  void (*im2col_row)(const Im2colRow& r, const float* plane, float* out);
  // The adjoint of im2col_row (col2im): plane[offset + y * w + x] +=
  // cols[y * ow + x] for y in [y0, y1) and x in [x0, x1), one float add
  // per element, so the bytes are the scalar loop's.
  void (*col2im_row)(const Im2colRow& r, const float* cols, float* plane);
  void (*pool_max)(const MaxPoolRect& r, float* out, std::int64_t* argmax);
};

// The table of the vector level <= `level` this CPU supports, or nullptr
// at the scalar level.
const F32VecOps* f32_vec_ops(SimdLevel level);

// ---------------------------------------------------------------------
// Integer tile kernels: C[i, j] = sum_p A[i, p] * B[j, p] over packed
// operands, finished by a fused requantization epilogue.
//
// Packing (tensor/int_gemm.h builds it, and its int_gemm_packed is the
// one sharded driver; conv stages call int_tiles per packed panel). The
// tier, the int16 block and the epilogue width come from quant/acc_bound
// alone. K is split into 4-byte *groups* — four int8 words (kS8) or two
// int16 words (kS16) — zero-padded past K, so no kernel has a K tail.
// A (the broadcast operand, one row per output row) is row-major
// [m][groups]; B (the panel operand, one row per output column) is
// panel-major [panels][groups][kIntPanel], zero-padded past the last
// column. For kS8 exactly one operand holds activations, stored
// unsigned with a +128 offset (a_unsigned says which); the caller's
// addends subtract the 128 * sum(w) that the offset adds.
inline constexpr std::int64_t kIntPanel = 16;
inline constexpr std::int64_t kIntGroupBytes = 4;

enum class IntBody { kS8, kS16 };

// One shift-round-saturate step: exactly saturate(shift_raw_rounded(v,
// from, to)) with shift = from - to (round half away from zero when
// shifting down, exact shift when shifting up).
struct IntRequant {
  int shift = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
};

// out[i, j] = R2(R1(acc[i, j] + row_add[i] + col_add[j])). R1 is
// `requant`; R2, when relu is set, is max(., 0) followed by
// `relu_requant` — a conv or inner product and the ReLU after it, both
// roundings kept. Constants are per stage, hoisted out of the tiles.
//
// A binary (sign-mux) stage replaces R1 by the reference executor's
// double step (hw/nfu_sim requantize_sum), with add = row_add[i] +
// col_add[j] as the aligned bias the scale does not multiply:
//   x = (double(acc) * scale + double(add)) * post * grid,
// each operation rounded on its own (no fused multiply-add; the units
// that compile it, and the reference, build with -ffp-contract=off),
// then clamped to [requant.lo, requant.hi] and rounded half away from
// zero. post is 2^-acc_frac and grid is 2^frac of the output, the exact
// reciprocal of its step: x / 2^-f and x * 2^f are the same correctly
// rounded value.
struct IntScaledRequant {
  bool on = false;
  double scale = 1.0;
  double post = 1.0;
  double grid = 1.0;
};

// i32 selects the register epilogue of the vector tiers, for a job
// whose int32 lanes hold the whole K (kS8, or kS16 with k_block >=
// groups): the int32 lanes take the addends (truncated to int32: the
// sum is exact modulo 2^32) and the requant in place, then narrow
// straight to the output words. The caller sets it only when its bound
// proves every |acc + row_add + col_add| plus R1's rounding half below
// 2^31 and R1's shift at most 30, or R1 is the scaled step, which reads
// the int32 lanes as doubles (quant/acc_bound); every other tile widens
// to int64.
struct IntEpilogue {
  const std::int64_t* row_add = nullptr;  // [m] or nullptr
  const std::int64_t* col_add = nullptr;  // [n] or nullptr
  IntRequant requant;
  IntScaledRequant scaled;  // R1 for binary stages: requant.lo/hi clamp
  bool relu = false;
  IntRequant relu_requant;
  void* out = nullptr;   // element (0, 0) of the output
  std::int64_t ldo = 0;  // output row stride, in elements
  int out_bytes = 8;     // 1 (int8), 2 (int16) or 8 (int64)
  bool i32 = false;      // out_bytes 1 or 2 only
};

struct IntTileJob {
  IntBody body = IntBody::kS8;
  bool a_unsigned = false;  // kS8: A carries the +128 offset, else B does
  std::int64_t m = 0;       // output rows (rows of A)
  std::int64_t n = 0;       // output columns (covered by B's panels)
  std::int64_t groups = 0;  // K groups per row
  // kS16: K groups (pairs) per int32 accumulation block, >= 1; the
  // whole K is one block when k_block >= groups.
  std::int64_t k_block = 1;
  const void* a = nullptr;
  const void* b = nullptr;  // first panel
  IntEpilogue epi;
};

// Runs the job at `level`, clamped to what this CPU supports.
void int_tiles(SimdLevel level, const IntTileJob& job);

// ---------------------------------------------------------------------
// The vector data path around the tiles: the word-level steps of a
// native integer forward (quant/int_datapath holds their scalar
// references and the dispatch). One table per vector level, written
// once over 16-lane vectors in tensor/int_tiles.h. Every entry returns
// exactly its scalar reference's words; the preconditions below are
// the caller's to check.

// A max pool over h x w planes: output (y, x) is the max over the
// window rows [y*stride - pad, +kernel) and columns [x*stride - pad,
// +kernel), clipped to the plane. Every window must hold a word, and
// neither pad + w nor stride * round_up(ow, kIntPanel) + kernel +
// 2 * kIntPanel may exceed kIntPoolRowWords.
struct IntPoolGeom {
  std::int64_t h = 0, w = 0, oh = 0, ow = 0;
  std::int64_t kernel = 0, stride = 1, pad = 0;
};
inline constexpr std::int64_t kIntPoolRowWords = 1024;

// im2row of one conv panel from zero-padded planes (hp x wp each, in_c
// of them): K row r = (ci, ky, kx) of column c holds the word at
// ((ci * hp + ky + y * stride) * wp + kx + x * stride) for output
// position j0 + c = y * ow + x, in the panel layout of int_gemm.h; the
// K tail and columns past `cols` hold `zero`. The vector entry takes
// stride 1 only, and reads up to kIntPanel words before and after the
// planes, which must be readable.
struct IntPatchGeom {
  std::int64_t in_c = 0, kernel = 0, stride = 1, hp = 0, wp = 0, ow = 0;
  std::int64_t k() const { return in_c * kernel * kernel; }  // K rows
};

template <typename WordT>
struct IntWordOps {
  // out[i] = the raw word of x[i] * 2^frac, rounded half away from zero
  // and saturated to [lo, hi]; NaN gives 0. frac in [-126, 127].
  void (*encode)(const float* x, std::int64_t n, int frac, std::int32_t lo,
                 std::int32_t hi, WordT* out);
  // out[i] = q(relu ? max(in[i], 0) : in[i]); in == out is allowed.
  void (*requant)(const WordT* in, std::int64_t n, const IntRequant& q,
                  bool relu, WordT* out);
  // The window maxima of `planes` consecutive planes (not requantized).
  void (*pool_max)(const IntPoolGeom& g, std::int64_t planes,
                   const WordT* in, WordT* out);
  void (*pack_patch)(const IntPatchGeom& g, const WordT* img,
                     std::int64_t j0, std::int64_t cols, WordT zero,
                     WordT* panel);
};

struct IntVecOps {
  IntWordOps<std::int8_t> s8;
  IntWordOps<std::int16_t> s16;
  // IntWordOps::encode into int32 words, for formats of at most 24 bits
  // (lo and hi exact floats): the fixed weight words of quant/int_plan.
  void (*encode_s32)(const float* x, std::int64_t n, int frac,
                     std::int32_t lo, std::int32_t hi, std::int32_t* out);
};

// The table of the best vector level <= `level` this CPU supports, or
// nullptr when that is the scalar level.
const IntVecOps* int_vec_ops(SimdLevel level);

// ---------------------------------------------------------------------
// Fake-quant span kernels (DESIGN.md §15): quantize x[0, n) in place
// onto a format's value grid and, in the same pass, count the guard
// classes (quant/guards.h) of the values before quantization: NaN, ±Inf,
// and a finite |x[i]| > limit. `limit` is the largest float <= the
// format's clip limit (+inf when the format is unbounded), so the float
// compare gives the double one's answer. One table per vector level,
// written once over 16-lane vectors in tensor/int_tiles.h; the scalar
// references are the formats' double quantize loops in
// quant/quantizer.cc, which check the preconditions below. Every entry
// returns exactly its reference's bytes and counts.
struct FqCounts {
  std::int64_t saturated = 0, nan = 0, inf = 0;
};

struct FqVecOps {
  // Fixed point, round half away from zero: the word of x[i] * 2^frac
  // saturated to [lo, hi] (NaN -> 0), times 2^-frac. At most 24 bits
  // (IntWordOps::encode's lanes); frac in [-126, 126].
  void (*fixed)(float* x, std::int64_t n, int frac, std::int32_t lo,
                std::int32_t hi, float limit, FqCounts* counts);
  // The same steps in double lanes, for 25 to 32 bits.
  void (*fixed_wide)(float* x, std::int64_t n, int frac, std::int32_t lo,
                     std::int32_t hi, float limit, FqCounts* counts);
  // Power of two: +0 for NaN and below 2^(exp_min - 1); else sign(x[i])
  // * 2^clamp(e, exp_min, exp_max), e the exponent of x[i], +1 when its
  // mantissa is >= 1.5. exp_min >= -126 and exp_max <= 127.
  void (*pow2)(float* x, std::int64_t n, int exp_min, int exp_max,
               float limit, FqCounts* counts);
  // Binary: x[i] < 0 ? -scale : scale (NaN and -0 give +scale).
  void (*binary)(float* x, std::int64_t n, float scale, float limit,
                 FqCounts* counts);

  // Calibration scores (quant/quantizer.cc, fixed_candidate_mse and
  // pow2_candidate_mse): for each candidate c < candidates <= 16,
  // sse[c] = fma(e_n-1, e_n-1, ... fma(e_0, e_0, 0)), the errors e_i =
  // double(x[i]) - q_c(x[i]) folded in sample order with one rounding
  // per step, q_c the double value of x[i] on candidate c's grid.
  // Fixed: round half away from zero with frac0 + c fraction bits,
  // saturated to [lo, hi] (NaN -> 0); every frac in [-126, 126].
  void (*fixed_sse)(const float* x, std::int64_t n, int frac0,
                    int candidates, std::int32_t lo, std::int32_t hi,
                    double* sse);
  // Power of two (the pow2 entry's rounding) with exponents
  // [exp_min0 - c, exp_max0 - c]; exp_min0 - candidates + 1 >= -126 and
  // exp_max0 <= 127.
  void (*pow2_sse)(const float* x, std::int64_t n, int exp_min0,
                   int exp_max0, int candidates, double* sse);
};

// The table of the best vector level <= `level` this CPU supports, or
// nullptr when that is the scalar level.
const FqVecOps* fq_vec_ops(SimdLevel level);

}  // namespace qnn
