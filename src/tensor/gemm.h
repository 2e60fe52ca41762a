// Single-precision matrix multiply kernels.
//
// Convolution (via im2col) and fully-connected layers lower to one
// entry, gemm(const GemmOp&) below.
// The implementation is a register-blocked, cache-tiled kernel — no
// external BLAS dependency — dispatched at runtime between an AVX2/FMA
// microkernel and a portable scalar fallback (tensor/microkernel,
// QNN_SIMD override), sharded across the global thread pool along the M
// dimension and, for tall-K problems, along K through a fixed-tree
// reduction. Both shardings are bit-deterministic: every output
// element's accumulation order is a pure function of the problem shape
// (see GemmKPlan below), so N-thread and 1-thread runs produce
// identical bytes — and so do the scalar and vector dispatch paths (the
// lane-stripe contract extending the plan; see below).
//
// A GemmOp names the four choices a product can make — which operand is
// stored transposed, whether C is overwritten or accumulated into, and
// which axis an optional bias runs along. The bias is added to each
// finished output element after its K accumulation completes — one float
// add per element, never part of the K fold.
#pragma once

#include <cstdint>

namespace qnn {

// M-dimension cache-block size. Work is sharded across threads in whole
// M-blocks, and re-executing any block-aligned row range [i0, i0+mb) via
// a fresh gemm call on the sliced operands reproduces the original bytes
// exactly (the K accumulation order per element depends only on K, never
// on M or the thread count). protect/abft relies on both properties to
// verify and recompute individual shards.
inline constexpr std::int64_t kGemmBlockM = 64;

// K-dimension chunk width for the fixed-tree reduction. Matches the
// kernel's K cache block, so one chunk is exactly one pass of the inner
// kernel over its K range.
inline constexpr std::int64_t kGemmKChunk = 256;

// The fixed K-chunk plan: K splits into `count` chunks of width `chunk`
// (the last chunk takes the remainder). The plan is a pure function of
// K alone — never of M, N, QNN_THREADS, or the pool state — which makes
// the canonical accumulation order below a pure function of the problem
// shape:
//
//   partial[c][i][j] = serial float left-fold of A[i, c·chunk .. ) ·
//                      B[.. , j] over chunk c's K range (from zero)
//   C[i][j]          = fixed binary tree over partial[0..count):
//                      combine partial[lo] += partial[lo+stride] for
//                      stride = 1, 2, 4, ...
//
// count == 1 (K <= kGemmKChunk) degenerates to the classic single
// serial left-fold over K.
//
// accumulate (C += A·B) differs between the two plan shapes, and both
// forms are pinned by tests/gemm_property_test.cc:
//
//   count == 1: the fold is SEEDED with the old C — acc starts at
//               C[i][j], not at zero — so the old value takes part in
//               every rounding step (conv's dW accumulation relies on
//               this).
//   count >= 2: C[i][j] = old C + tree result, one float add.
//
// A bias, if any, is added last in both cases: C[i][j] += bias[i] (row
// axis) or bias[j] (column axis).
//
// Whether the chunks are *computed* in parallel is a scheduling choice
// (K-parallelism engages when M is too small to saturate the pool); it
// can never change the bytes, because chunk boundaries and the merge
// tree are fixed by this plan. ABFT re-execution of an M-sliced range
// therefore reuses the same plan as the original full-M call and
// reproduces its bytes exactly.
//
// Lane-stripe extension (DESIGN.md §15): within a chunk, each fold step
// is one FUSED multiply-add — fl(a*b + acc) with a single rounding
// (std::fmaf in the scalar kernel, vfmadd231ps in the AVX2 one) — and
// output columns stripe across vector lanes in groups of kGemmLanes
// (column j occupies lane j mod kGemmLanes of its group, a pure
// function of shape). Lanes hold DISTINCT output elements and never mix
// in float arithmetic, so the stripe fixes a layout, not an order: the
// per-element fold above is the entire floating-point contract, and
// scalar vs AVX2 dispatch is byte-invisible by IEEE-754 fma semantics
// rather than by codegen coincidence. tensor/microkernel.h defines the
// kernels and the QNN_SIMD runtime dispatch;
// tests/gemm_kernel_differential_test.cc pins scalar == AVX2 bytes for
// every GemmOp form, thread count, and boundary shape.
struct GemmKPlan {
  std::int64_t chunk = 0;  // width of each full chunk
  std::int64_t count = 1;  // number of chunks, >= 1

  friend bool operator==(const GemmKPlan&, const GemmKPlan&) = default;
};

inline GemmKPlan gemm_k_plan(std::int64_t k) {
  if (k <= kGemmKChunk) return GemmKPlan{k, 1};
  return GemmKPlan{kGemmKChunk, (k + kGemmKChunk - 1) / kGemmKChunk};
}

enum class BiasAxis { kRow, kCol };

// C[M,N] = A[M,K] * B[K,N], all row-major, optionally with a transposed
// operand, accumulated into C, and/or followed by a bias:
//
//   trans_a     A is stored [K,M] (InnerProduct's dW = dO^T * X)
//   trans_b     B is stored [N,K] (InnerProduct's forward, conv's dW^T)
//   accumulate  C += A*B instead of C = A*B (see the contract above)
//   bias        null, or M floats (kRow: conv's per-output-channel bias)
//               or N floats (kCol: InnerProduct's per-feature bias)
//
// At most one operand may be transposed (QNN_CHECK): the workspace
// holds one transpose buffer and no caller needs both.
//
// The workspace — the K-sharded chunk partials and the transposed
// operand — is the calling thread's own, kept across calls and grown
// as needed (and each pool thread's for the M-block tasks it runs), so
// steady-state calls do not allocate and no caller passes one in. A
// caller's operands must therefore not live in it; conv keeps its
// im2col columns in a per-thread buffer of its own.
//
// A trans_b op whose B^T would move more floats than A^T and C^T
// together (N*K > M*K + M*N, a pure function of the shape — the
// inner-product forward, and conv's dW^T where Cout outgrows Cin*K*K)
// runs as the transposed product
// C^T = B_stored * A^T with the bias axis swapped, then transposes the
// small result into C; accumulate transposes the old C in first. The
// bytes equal the plain product's: fma(a, b, c) == fma(b, a, c), the K
// plan depends on K alone, and the bias is still one add after the
// tree (DESIGN.md §9).
struct GemmOp {
  std::int64_t m = 0, n = 0, k = 0;
  const float* a = nullptr;
  bool trans_a = false;
  const float* b = nullptr;
  bool trans_b = false;
  float* c = nullptr;
  bool accumulate = false;
  const float* bias = nullptr;
  BiasAxis bias_axis = BiasAxis::kRow;
};

void gemm(const GemmOp& op);

// dst[r*cols + c] = src[c*rows + r] (src stored [cols, rows], dst
// [rows, cols]), or += with accumulate: one float add per element, so a
// sequence of calls adds in call order. Pure data movement otherwise,
// sharded over disjoint destination tiles: the same bytes at any pool
// size.
void transpose_into(float* dst, const float* src, std::int64_t rows,
                    std::int64_t cols, bool accumulate = false);

}  // namespace qnn
