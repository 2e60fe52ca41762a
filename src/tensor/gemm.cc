#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/microkernel.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

struct GemmMetrics {
  obs::Counter calls;
  obs::Counter macs;
  obs::Counter k_sharded_calls;  // calls whose plan has >= 2 K chunks
  obs::Counter k_chunks;         // chunk partials those calls computed
};

GemmMetrics& gemm_metrics() {
  obs::Registry& r = obs::Registry::global();
  static GemmMetrics m{r.counter("gemm.calls"), r.counter("gemm.macs"),
                       r.counter("gemm.k_sharded_calls"),
                       r.counter("gemm.k_chunks")};
  return m;
}

// Cache-blocking parameters sized for a typical 32 KiB L1 / 256 KiB L2.
// The K block doubles as the fixed-tree chunk width (gemm_k_plan), so a
// chunk partial is exactly one inner-kernel pass over its K range.
constexpr std::int64_t kBlockM = kGemmBlockM;
constexpr std::int64_t kBlockN = 256;
constexpr std::int64_t kBlockK = kGemmKChunk;

// K-parallel partial buffers above this size fall back to serial-chunk
// execution inside each M-block task (bytes are unaffected — only the
// schedule and scratch footprint change).
constexpr std::int64_t kMaxKParallelFloats = std::int64_t{1} << 24;

// Inner kernel: C[mb, nb] += A[mb, kb] * B[kb, nb] over one cache block,
// routed through the runtime-dispatched microkernel (tensor/microkernel).
// Every level computes the canonical lane-striped fold — a serial fused
// multiply-add per (element, p) with no cross-lane mixing — so the
// dispatch choice can never change the bytes.
void block_kernel(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                  const float* a, std::int64_t lda, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc) {
  gemm_block_f32(active_simd_level(), mb, nb, kb, a, lda, b, ldb, c, ldc);
}

// The bias epilogue of rows [i0, i0 + mb): one float add per element,
// after its K accumulation (and tree merge) completes.
void add_bias(const GemmOp& op, std::int64_t i0, std::int64_t mb) {
  if (op.bias == nullptr) return;
  const std::int64_t n = op.n;
  for (std::int64_t i = i0; i < i0 + mb; ++i) {
    float* ci = op.c + i * n;
    if (op.bias_axis == BiasAxis::kRow) {
      const float bias = op.bias[i];
      for (std::int64_t j = 0; j < n; ++j) ci[j] += bias;
    } else {
      for (std::int64_t j = 0; j < n; ++j) ci[j] += op.bias[j];
    }
  }
}

// One M block of the single-chunk (count == 1) plan: all K and N blocks
// for rows [i0, i0 + mb), then the bias epilogue. Accumulate skips the
// memset, so the fold starts from the old C (gemm.h). Writes only rows
// [i0, i0 + mb) of C, and every element's accumulation order over K is
// independent of how the M dimension is chunked — the basis for
// deterministic row sharding.
void run_m_block(const GemmOp& op, std::int64_t i0, std::int64_t mb) {
  const std::int64_t n = op.n;
  const std::int64_t k = op.k;
  float* cblock = op.c + i0 * n;
  if (!op.accumulate)
    std::memset(cblock, 0, sizeof(float) * static_cast<std::size_t>(mb * n));
  for (std::int64_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::int64_t kb = std::min(kBlockK, k - p0);
    for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
      const std::int64_t nb = std::min(kBlockN, n - j0);
      block_kernel(mb, nb, kb, op.a + i0 * k + p0, k, op.b + p0 * n + j0, n,
                   cblock + j0, n);
    }
  }
  add_bias(op, i0, mb);
}

// One chunk partial of the canonical order (gemm.h): rows [i0, i0+mb) of
// A times chunk `ci`'s K slice of B, accumulated from zero into the
// mb*n buffer `dst`.
void compute_chunk_partial(const GemmOp& op, const GemmKPlan& plan,
                           std::int64_t ci, std::int64_t i0, std::int64_t mb,
                           float* dst) {
  const std::int64_t n = op.n;
  const std::int64_t k = op.k;
  const std::int64_t p0 = ci * plan.chunk;
  const std::int64_t kb = std::min(plan.chunk, k - p0);
  std::memset(dst, 0, sizeof(float) * static_cast<std::size_t>(mb * n));
  for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
    const std::int64_t nb = std::min(kBlockN, n - j0);
    block_kernel(mb, nb, kb, op.a + i0 * k + p0, k, op.b + p0 * n + j0, n,
                 dst + j0, n);
  }
}

// Fixed binary tree over `count` partials of `elems` floats spaced
// `slot` floats apart: combine partial[lo] += partial[lo + stride] for
// stride = 1, 2, 4, ... The merge order is a pure function of `count`,
// and the result lands in partial[0].
void tree_combine(float* partials, std::int64_t count, std::int64_t elems,
                  std::int64_t slot) {
  for (std::int64_t stride = 1; stride < count; stride *= 2) {
    for (std::int64_t lo = 0; lo + stride < count; lo += 2 * stride) {
      float* dst = partials + lo * slot;
      const float* src = partials + (lo + stride) * slot;
      for (std::int64_t e = 0; e < elems; ++e) dst[e] += src[e];
    }
  }
}

// Epilogue of the chunked path: move the tree result into C (overwrite
// or add to the old C), then the bias.
void write_block_from_tree(const GemmOp& op, std::int64_t i0,
                           std::int64_t mb, const float* tree) {
  float* cblock = op.c + i0 * op.n;
  const std::int64_t elems = mb * op.n;
  if (op.accumulate) {
    for (std::int64_t e = 0; e < elems; ++e) cblock[e] += tree[e];
  } else {
    std::memcpy(cblock, tree, sizeof(float) * static_cast<std::size_t>(elems));
  }
  add_bias(op, i0, mb);
}

// Serial-chunk execution of one M block: compute every chunk partial in
// chunk order into `partials` (count * mb * n floats), tree-combine,
// write out. Byte-identical to the K-parallel schedule by construction.
void run_m_block_chunked(const GemmOp& op, const GemmKPlan& plan,
                         std::int64_t i0, std::int64_t mb, float* partials) {
  const std::int64_t slot = mb * op.n;
  for (std::int64_t ci = 0; ci < plan.count; ++ci)
    compute_chunk_partial(op, plan, ci, i0, mb, partials + ci * slot);
  tree_combine(partials, plan.count, slot, slot);
  write_block_from_tree(op, i0, mb, partials);
}

// The calling thread's growth-only workspace (gemm.h): the chunk
// partials and the transposed operand, in two buffers because the
// transposed operand stays live across gemm_impl while the partials
// fill. An M-block task that runs on another pool thread (several blocks
// in flight) takes that thread's partials; the K-parallel schedule's
// tasks write into the caller's and never touch their own.
class GemmScratch {
 public:
  // Returns a buffer of at least `elems` floats (contents unspecified).
  float* partials(std::size_t elems) {
    if (partials_.size() < elems) partials_.resize(elems);
    return partials_.data();
  }
  float* transpose(std::size_t elems) {
    if (transpose_.size() < elems) transpose_.resize(elems);
    return transpose_.data();
  }

 private:
  std::vector<float> partials_;
  std::vector<float> transpose_;
};

GemmScratch& thread_scratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

// The product of an op whose operands are already in [M,K] x [K,N]
// layout (gemm below materializes a flagged transpose first).
void gemm_impl(const GemmOp& op, GemmScratch& scratch) {
  const std::int64_t m = op.m;
  const std::int64_t n = op.n;
  const std::int64_t k = op.k;
  QNN_SPAN_N("gemm", "tensor", m * n * k);
  GemmMetrics& gm = gemm_metrics();
  gm.calls.inc();
  gm.macs.add(m * n * k);
  const GemmKPlan plan = gemm_k_plan(k);
  const std::int64_t blocks = (m + kBlockM - 1) / kBlockM;

  if (plan.count <= 1) {
    parallel_run(blocks, [&](std::int64_t bi) {
      QNN_SPAN_N("gemm_shard", "tensor", bi);
      const std::int64_t i0 = bi * kBlockM;
      run_m_block(op, i0, std::min(kBlockM, m - i0));
    });
    return;
  }

  gm.k_sharded_calls.inc();
  gm.k_chunks.add(blocks * plan.count);

  // K-parallelism engages when the M blocks alone cannot saturate the
  // pool — the tall-K inner-product case. The choice (and the scratch
  // it implies) is pure scheduling: both paths below compute the same
  // chunk partials and run the same merge tree, so the bytes match.
  const std::int64_t kshard_floats = blocks * plan.count * kBlockM * n;
  const bool k_parallel = !ThreadPool::in_worker() &&
                          ThreadPool::global().parallel_capacity() > 1 &&
                          blocks < ThreadPool::global().size() &&
                          kshard_floats <= kMaxKParallelFloats;
  if (k_parallel) {
    QNN_SPAN_N("gemm_kshard", "tensor", blocks * plan.count);
    // Block bi's chunk partials pack at base(bi) = bi * count * kBlockM
    // * n with per-chunk stride mb * n (mb < kBlockM only for the last
    // block, so bases never overlap).
    float* partials =
        scratch.partials(static_cast<std::size_t>(kshard_floats));
    parallel_run(blocks * plan.count, [&](std::int64_t ti) {
      QNN_SPAN_N("gemm_kchunk", "tensor", ti);
      const std::int64_t bi = ti / plan.count;
      const std::int64_t ci = ti % plan.count;
      const std::int64_t i0 = bi * kBlockM;
      const std::int64_t mb = std::min(kBlockM, m - i0);
      float* base = partials + bi * plan.count * kBlockM * n;
      compute_chunk_partial(op, plan, ci, i0, mb, base + ci * mb * n);
    });
    parallel_run(blocks, [&](std::int64_t bi) {
      QNN_SPAN_N("gemm_kcombine", "tensor", bi);
      const std::int64_t i0 = bi * kBlockM;
      const std::int64_t mb = std::min(kBlockM, m - i0);
      float* base = partials + bi * plan.count * kBlockM * n;
      tree_combine(base, plan.count, mb * n, mb * n);
      write_block_from_tree(op, i0, mb, base);
    });
    return;
  }

  // Serial-chunk schedule: each M-block task owns its chunk loop. A
  // single block runs inline on the caller, in the call's scratch;
  // otherwise each task takes the executing thread's.
  parallel_run(blocks, [&](std::int64_t bi) {
    QNN_SPAN_N("gemm_shard", "tensor", bi);
    const std::int64_t i0 = bi * kBlockM;
    const std::int64_t mb = std::min(kBlockM, m - i0);
    const std::size_t elems =
        static_cast<std::size_t>(plan.count * mb * n);
    float* partials = blocks == 1 ? scratch.partials(elems)
                                  : thread_scratch().partials(elems);
    run_m_block_chunked(op, plan, i0, mb, partials);
  });
}

// transpose_into (gemm.h) is tiled: naive loops touch a new cache line
// on every element of the strided side (worth ~10x on a tall-K weight
// matrix); square tiles keep both the contiguous writes and the strided
// reads in a cache-resident footprint. Sharded over destination row
// tiles (disjoint writes), so the bytes are identical at any pool size.
// 16 floats = one 64-byte cache line per row segment on both sides of
// the copy, the sweet spot measured on the tall-K weight shapes.
constexpr std::int64_t kTransposeTile = 16;

}  // namespace

void transpose_into(float* dst, const float* src, std::int64_t rows,
                    std::int64_t cols, bool accumulate) {
  const std::int64_t row_tiles = (rows + kTransposeTile - 1) / kTransposeTile;
  parallel_for_shards(
      row_tiles, kReductionShards, shard_grain(2 * kTransposeTile * cols),
      [&](std::size_t, std::int64_t begin, std::int64_t end) {
        for (std::int64_t rt = begin; rt < end; ++rt) {
          const std::int64_t r0 = rt * kTransposeTile;
          const std::int64_t r1 = std::min(rows, r0 + kTransposeTile);
          for (std::int64_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
            const std::int64_t c1 = std::min(cols, c0 + kTransposeTile);
            for (std::int64_t r = r0; r < r1; ++r) {
              float* d = dst + r * cols;
              if (accumulate) {
                for (std::int64_t c = c0; c < c1; ++c)
                  d[c] += src[c * rows + r];
              } else {
                for (std::int64_t c = c0; c < c1; ++c)
                  d[c] = src[c * rows + r];
              }
            }
          }
        }
      });
}

namespace {

// Materialize a transposed operand once: src is stored [cols, rows],
// the result [rows, cols] (A stored [K,M] -> [M,K], B stored [N,K] ->
// [K,N]). The transpose cost is small next to the O(mnk) multiply and
// keeps the inner kernel contiguous.
const float* transpose_operand(const float* src, std::int64_t rows,
                               std::int64_t cols, GemmScratch& scratch) {
  float* dst = scratch.transpose(static_cast<std::size_t>(rows * cols));
  transpose_into(dst, src, rows, cols);
  return dst;
}

// The shape rule of a trans_b op: materializing B^T moves N*K floats,
// the transposed product C^T = B_stored * A^T moves A^T in and C^T out
// (M*K + M*N). A pure function of the shape, so it never depends on the
// thread count or the SIMD level.
bool prefers_transposed_product(const GemmOp& op) {
  return op.trans_b && op.n * op.k > op.m * op.k + op.m * op.n;
}

// C^T[N,M] = B_stored[N,K] * A^T[K,M], then C = (C^T)^T. Byte-identical
// to the plain product: each element folds the same K products in the
// same order (fma(a, b, c) == fma(b, a, c)), the K plan depends on K
// alone, and the bias — swapped to the other axis — is still one add
// after the tree. An accumulated C is transposed in first, so it seeds
// the fold (or meets the tree) exactly as it would have. A^T and C^T
// share the workspace's transpose buffer.
void transposed_product(const GemmOp& op, GemmScratch& scratch) {
  const std::int64_t m = op.m, n = op.n, k = op.k;
  float* at = scratch.transpose(static_cast<std::size_t>(k * m + n * m));
  float* ct = at + k * m;
  transpose_into(at, op.a, k, m);
  if (op.accumulate) transpose_into(ct, op.c, n, m);
  GemmOp t = op;
  t.m = n;
  t.n = m;
  t.a = op.b;
  t.b = at;
  t.trans_b = false;
  t.c = ct;
  t.bias_axis =
      op.bias_axis == BiasAxis::kRow ? BiasAxis::kCol : BiasAxis::kRow;
  gemm_impl(t, scratch);
  transpose_into(op.c, ct, m, n);
}

}  // namespace

void gemm(const GemmOp& op) {
  QNN_CHECK_MSG(!(op.trans_a && op.trans_b),
                "gemm: at most one operand may be transposed");
  GemmScratch& s = thread_scratch();
  if (prefers_transposed_product(op)) {
    transposed_product(op, s);
    return;
  }
  GemmOp plain = op;
  if (op.trans_a) plain.a = transpose_operand(op.a, op.m, op.k, s);
  if (op.trans_b) plain.b = transpose_operand(op.b, op.k, op.n, s);
  plain.trans_a = plain.trans_b = false;
  gemm_impl(plain, s);
}

}  // namespace qnn
