#include "protect/abft.h"

#include <atomic>
#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::protect {

AbftCounters& AbftCounters::operator+=(const AbftCounters& o) {
  blocks_checked += o.blocks_checked;
  mismatches += o.mismatches;
  reexecutions += o.reexecutions;
  unrecovered += o.unrecovered;
  return *this;
}

namespace detail {

// Shared state behind an AbftScope, reachable from any thread executing
// inside the scope via ThreadPool::task_context(). The context slot is
// currently owned exclusively by AbftScope (see thread_pool.h); relaxed
// atomics suffice because integer sums are order-independent, keeping
// totals bit-identical across thread counts.
struct AbftContext {
  AbftOptions options;
  std::atomic<std::int64_t> blocks_checked{0};
  std::atomic<std::int64_t> mismatches{0};
  std::atomic<std::int64_t> reexecutions{0};
  std::atomic<std::int64_t> unrecovered{0};

  void add(const AbftCounters& c) {
    blocks_checked.fetch_add(c.blocks_checked, std::memory_order_relaxed);
    mismatches.fetch_add(c.mismatches, std::memory_order_relaxed);
    reexecutions.fetch_add(c.reexecutions, std::memory_order_relaxed);
    unrecovered.fetch_add(c.unrecovered, std::memory_order_relaxed);
  }

  AbftCounters snapshot() const {
    AbftCounters c;
    c.blocks_checked = blocks_checked.load(std::memory_order_relaxed);
    c.mismatches = mismatches.load(std::memory_order_relaxed);
    c.reexecutions = reexecutions.load(std::memory_order_relaxed);
    c.unrecovered = unrecovered.load(std::memory_order_relaxed);
    return c;
  }
};

}  // namespace detail

namespace {

// Unit roundoff of float32 (half of FLT_EPSILON).
constexpr double kUnitRoundoff = 1.0 / 16777216.0;  // 2^-24

// Huang–Abraham column-sum check for output rows [i0, i0+mb):
//
//   got[j]    = Σ_i C[i0+i, j]                       (the shard's column sums)
//   expect[j] = Σ_k' r[k']·B[k',j] + bias terms      (checksum-row product)
//   r[k']     = Σ_i A[i0+i, k']
//
// both accumulated in double. The two agree exactly in real arithmetic;
// in float32 they differ by at most the accumulated rounding of the mb
// K-length dot products, bounded by u·(k+mb+slack)·mag[j] where mag[j]
// aggregates Σ|a||b| (+ |bias|) for column j. `b_at(k', j)` abstracts
// over B's storage layout ([K,N] plain vs [N,K] trans_b).
template <typename BAt>
bool shard_checksum_ok(std::int64_t i0, std::int64_t mb, std::int64_t n,
                       std::int64_t k, const float* a, BAt&& b_at,
                       const float* c, const float* row_bias,
                       const float* col_bias, double tolerance_scale,
                       std::vector<double>& r, std::vector<double>& ra) {
  for (std::int64_t kp = 0; kp < k; ++kp) r[kp] = ra[kp] = 0.0;
  for (std::int64_t i = 0; i < mb; ++i) {
    const float* arow = a + (i0 + i) * k;
    for (std::int64_t kp = 0; kp < k; ++kp) {
      const double v = static_cast<double>(arow[kp]);
      r[kp] += v;
      ra[kp] += std::abs(v);
    }
  }
  double bias_sum = 0.0;
  double bias_mag = 0.0;
  if (row_bias != nullptr) {
    for (std::int64_t i = 0; i < mb; ++i) {
      const double v = static_cast<double>(row_bias[i0 + i]);
      bias_sum += v;
      bias_mag += std::abs(v);
    }
  }
  const double tol_factor = tolerance_scale * kUnitRoundoff *
                            static_cast<double>(k + mb + 8);
  for (std::int64_t j = 0; j < n; ++j) {
    double got = 0.0;
    for (std::int64_t i = 0; i < mb; ++i)
      got += static_cast<double>(c[(i0 + i) * n + j]);
    double expect = bias_sum;
    double mag = bias_mag;
    for (std::int64_t kp = 0; kp < k; ++kp) {
      const double bv = b_at(kp, j);
      expect += r[kp] * bv;
      mag += ra[kp] * std::abs(bv);
    }
    if (col_bias != nullptr) {
      const double cb = static_cast<double>(col_bias[j]);
      expect += static_cast<double>(mb) * cb;
      mag += static_cast<double>(mb) * std::abs(cb);
    }
    const double tol = tol_factor * mag + 1e-300;
    // A NaN/Inf in `got` fails this comparison and flags the shard.
    if (!(std::abs(got - expect) <= tol)) return false;
  }
  return true;
}

// Process-wide mirror of ABFT activity for RunReport (see the guard
// metrics in quant/qnetwork.cc for the rationale).
struct AbftMetrics {
  obs::Counter blocks_checked, mismatches, reexecutions, unrecovered;
};

AbftMetrics& abft_metrics() {
  obs::Registry& r = obs::Registry::global();
  static AbftMetrics m{r.counter("abft.blocks_checked"),
                       r.counter("abft.mismatches"),
                       r.counter("abft.reexecutions"),
                       r.counter("abft.unrecovered")};
  return m;
}

// Shard loop of abft_gemm: verify each kGemmBlockM-row shard in order,
// re-executing mismatched shards via `recompute(i0, mb)` up to the retry
// budget. Runs serially on the calling thread, after the (possibly
// parallel) full-product computation — verification order and all
// checksum arithmetic are independent of the thread count.
template <typename BAt, typename Recompute>
AbftCounters verify_shards(std::int64_t m, std::int64_t n, std::int64_t k,
                           const float* a, BAt&& b_at, float* c,
                           const float* row_bias, const float* col_bias,
                           const AbftOptions& options,
                           const AbftFaultHook& hook, Recompute&& recompute) {
  QNN_SPAN_N("abft_verify", "protect", m);
  AbftCounters counters;
  std::vector<double> r(static_cast<std::size_t>(k));
  std::vector<double> ra(static_cast<std::size_t>(k));
  for (std::int64_t i0 = 0; i0 < m; i0 += kGemmBlockM) {
    const std::int64_t mb = std::min(kGemmBlockM, m - i0);
    ++counters.blocks_checked;
    if (hook) hook(i0, mb, n, c + i0 * n, /*attempt=*/0);
    bool ok = shard_checksum_ok(i0, mb, n, k, a, b_at, c, row_bias, col_bias,
                                options.tolerance_scale, r, ra);
    if (ok) continue;
    ++counters.mismatches;
    int attempt = 0;
    while (!ok && attempt < options.max_reexecutions) {
      ++attempt;
      ++counters.reexecutions;
      {
        QNN_SPAN_N("abft_reexec", "protect", i0);
        recompute(i0, mb);
      }
      if (hook) hook(i0, mb, n, c + i0 * n, attempt);
      ok = shard_checksum_ok(i0, mb, n, k, a, b_at, c, row_bias, col_bias,
                             options.tolerance_scale, r, ra);
    }
    if (!ok) ++counters.unrecovered;
  }
  AbftMetrics& am = abft_metrics();
  am.blocks_checked.add(counters.blocks_checked);
  am.mismatches.add(counters.mismatches);
  am.reexecutions.add(counters.reexecutions);
  am.unrecovered.add(counters.unrecovered);
  return counters;
}

}  // namespace

AbftCounters abft_gemm(const GemmOp& op, const AbftOptions& options,
                       const AbftFaultHook& hook) {
  QNN_CHECK_MSG(!op.accumulate,
                "abft_gemm: a retry cannot restore an accumulated C");
  QNN_CHECK_MSG(!op.trans_a,
                "abft_gemm: a row shard of a [K,M] A is not contiguous");
  gemm(op);
  const std::int64_t n = op.n;
  const std::int64_t k = op.k;
  const bool row_axis = op.bias_axis == BiasAxis::kRow;
  const float* row_bias = row_axis ? op.bias : nullptr;
  const float* col_bias = row_axis ? nullptr : op.bias;
  // Re-executing rows [i0, i0+mb) as gemm on the M-sliced op reproduces
  // the original block bytes exactly: the K-chunk plan and its merge
  // tree depend only on K (gemm_k_plan), which the slice shares with the
  // full product.
  const auto recompute = [&](std::int64_t i0, std::int64_t mb) {
    GemmOp shard = op;
    shard.m = mb;
    shard.a = op.a + i0 * k;
    shard.c = op.c + i0 * n;
    if (row_bias != nullptr) shard.bias = row_bias + i0;
    gemm(shard);
  };
  // Verify against B as stored ([K,N], or [N,K] for trans_b) rather than
  // materializing a transpose a second time.
  const float* b = op.b;
  const std::int64_t k_stride = op.trans_b ? 1 : n;
  const std::int64_t j_stride = op.trans_b ? k : 1;
  const auto b_at = [=](std::int64_t kp, std::int64_t j) {
    return static_cast<double>(b[kp * k_stride + j * j_stride]);
  };
  return verify_shards(op.m, n, k, op.a, b_at, op.c, row_bias, col_bias,
                       options, hook, recompute);
}

AbftScope::AbftScope(const AbftOptions& options)
    : impl_(std::make_unique<detail::AbftContext>()) {
  impl_->options = options;
  prev_context_ = ThreadPool::task_context();
  ThreadPool::set_task_context(impl_.get());
}

AbftScope::~AbftScope() { ThreadPool::set_task_context(prev_context_); }

AbftCounters AbftScope::counters() const { return impl_->snapshot(); }

namespace {

detail::AbftContext* current_abft_context() {
  return static_cast<detail::AbftContext*>(ThreadPool::task_context());
}

}  // namespace

void gemm_guarded(const GemmOp& op) {
  detail::AbftContext* ctx = current_abft_context();
  if (ctx == nullptr) {
    gemm(op);
    return;
  }
  ctx->add(abft_gemm(op, ctx->options));
}

}  // namespace qnn::protect
