// Algorithm-based fault tolerance (ABFT) for the GEMM kernels.
//
// Classic Huang–Abraham checksums, applied per M-shard *around* the
// untouched tensor/gemm entry: for each block of kGemmBlockM output
// rows, the column sums of C must equal (column sums of the A slice) · B
// up to floating-point rounding. The checksum arithmetic runs in double
// precision, serially, on the calling thread, in shard-index order — so
// enabling verification never perturbs the product bytes and the
// N-thread == 1-thread bit-identity contract (DESIGN.md §9) holds with
// protection on.
//
// On a checksum mismatch the affected shard alone is recomputed as a
// gemm on the M-sliced GemmOp (rows [i0, i0+mb) of A, C and a row
// bias; B and a column bias whole), which reproduces the original
// block bytes exactly: the K-chunk plan and its fixed merge tree are a
// pure function of K alone (gemm_k_plan in tensor/gemm.h), so an
// M-sliced re-execution walks the identical canonical order as the
// first pass and a verified retry cannot differ from a clean run by
// merge order. Detection is bounded below by the rounding tolerance:
// corruption smaller than the accumulated float rounding of a K-length
// dot product is indistinguishable from legitimate arithmetic and
// passes unnoticed — by design, since such perturbations are also
// harmless. (The serial-fold bound also covers the fixed-tree order,
// whose accumulated rounding is strictly smaller.)
//
// Two GemmOp forms cannot be verified this way and are rejected with a
// QNN_CHECK: accumulate (a retry cannot restore the old C it overwrote)
// and trans_a (a row shard of an A stored [K,M] is not a contiguous
// slice). The forward paths the layers guard — conv's row-bias product
// and InnerProduct's trans_b column-bias product — are neither.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace qnn {
struct GemmOp;
}  // namespace qnn

namespace qnn::protect {

struct AbftOptions {
  // Checksum comparison tolerance, as a multiple of the rigorous
  // worst-case rounding bound eps_f32 * (k + mb) * Σ|a||b|. Values >= 1
  // cannot false-positive on clean arithmetic.
  double tolerance_scale = 2.0;
  // Recomputations attempted per mismatched shard before giving up.
  int max_reexecutions = 2;

  friend bool operator==(const AbftOptions&, const AbftOptions&) = default;
};

struct AbftCounters {
  std::int64_t blocks_checked = 0;   // M-shards verified
  std::int64_t mismatches = 0;       // shards that failed at least once
  std::int64_t reexecutions = 0;     // shard recomputations performed
  std::int64_t unrecovered = 0;      // shards still failing after retries

  bool clean() const { return mismatches == 0 && unrecovered == 0; }
  AbftCounters& operator+=(const AbftCounters& o);
  friend bool operator==(const AbftCounters&, const AbftCounters&) = default;
};

// Test/bench corruption hook: invoked after each (re)computation of rows
// [i0, i0+mb) and before their verification, with `c_rows` pointing at
// row i0 (row stride n). `attempt` is 0 for the initial pass, then 1..N
// for re-executions — a hook that corrupts only at attempt 0 models a
// transient upset; one that always corrupts models a hard fault.
using AbftFaultHook =
    std::function<void(std::int64_t i0, std::int64_t mb, std::int64_t n,
                       float* c_rows, int attempt)>;

// Checksum-verified gemm(op). The result is bit-identical to the
// unverified gemm whenever no corruption occurs (and after successful
// re-execution when it does). B's layout (trans_b) and the bias axis
// select how the checksum reads them.
AbftCounters abft_gemm(const GemmOp& op, const AbftOptions& options,
                       const AbftFaultHook& hook = {});

// ---------------------------------------------------------------------
// Scope-based dispatch for the inference stack.
//
// Layers call gemm_guarded below; it forwards to the plain gemm unless
// an AbftScope is active. The scope registers
// itself through ThreadPool's task context, so GEMMs issued from pool
// workers inside the scope (conv's per-sample batch sharding) are
// verified too. Counter accumulation uses relaxed atomics — integer
// sums are order-independent, so totals stay bit-identical across
// thread counts.

namespace detail {
struct AbftContext;
}

class AbftScope {
 public:
  explicit AbftScope(const AbftOptions& options);
  ~AbftScope();

  AbftScope(const AbftScope&) = delete;
  AbftScope& operator=(const AbftScope&) = delete;

  // Snapshot of the counters accumulated so far inside this scope.
  AbftCounters counters() const;

 private:
  std::unique_ptr<detail::AbftContext> impl_;
  void* prev_context_ = nullptr;
};

// abft_gemm(op) when an AbftScope is active on this thread (directly or
// inherited through the pool's task context), plain gemm(op) otherwise.
void gemm_guarded(const GemmOp& op);

}  // namespace qnn::protect
