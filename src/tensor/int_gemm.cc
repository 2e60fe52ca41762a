#include "tensor/int_gemm.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

struct IntGemmMetrics {
  obs::Counter calls;
  obs::Counter macs;
};

IntGemmMetrics& int_gemm_metrics() {
  obs::Registry& r = obs::Registry::global();
  static IntGemmMetrics m{r.counter("int_gemm.calls"),
                          r.counter("int_gemm.macs")};
  return m;
}

template <typename WordT>
void int_gemm_bt_impl(std::int64_t m, std::int64_t n, std::int64_t k,
                      const WordT* a, const WordT* b, std::int64_t* c) {
  QNN_SPAN_N("int_gemm", "tensor", m * n * k);
  constexpr bool kS8 = sizeof(WordT) == 1;
  std::vector<WordT> pa(static_cast<std::size_t>(m * int_row_words<WordT>(k)));
  std::vector<WordT> pb(
      static_cast<std::size_t>(int_panels(n) * int_panel_words<WordT>(k)));
  pack_int_rows(m, k, a, k, /*offset=*/kS8, pa.data());
  pack_int_panels(n, k, b, k, /*offset=*/false, pb.data());
  // The fast tiers' conditions for these operands (quant/acc_bound
  // states them per stage): int8 needs 255 * sum|b_j| within int32, and
  // int16 needs no -32768 in b.
  std::vector<std::int64_t> col_add(kS8 ? static_cast<std::size_t>(n) : 0);
  bool fast = true;
  for (std::int64_t j = 0; j < n; ++j) {
    std::int64_t sum = 0, abs_sum = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int64_t v = b[j * k + p];
      sum += v;
      abs_sum += v < 0 ? -v : v;
      if (!kS8 && v == std::numeric_limits<WordT>::min()) fast = false;
    }
    if constexpr (kS8) {
      col_add[static_cast<std::size_t>(j)] = -128 * sum;
      if (255 * abs_sum > std::numeric_limits<std::int32_t>::max())
        fast = false;
    }
  }
  IntTileJob job;
  job.body = int_body<WordT>;
  job.a_unsigned = true;
  job.m = m;
  job.n = n;
  job.groups = int_groups<WordT>(k);
  job.a = pa.data();
  job.b = pb.data();
  job.epi.col_add = kS8 ? col_add.data() : nullptr;
  job.epi.out = c;
  job.epi.ldo = n;
  int_gemm_packed(fast ? active_simd_level() : SimdLevel::kScalar, job);
}

}  // namespace

void int_gemm_packed(SimdLevel level, const IntTileJob& job) {
  IntGemmMetrics& gm = int_gemm_metrics();
  gm.calls.inc();
  gm.macs.add(job.m * job.n * job.groups *
              (job.body == IntBody::kS8 ? 4 : 2));
  const std::int64_t group_cost = job.m * kIntPanel * kIntGroupBytes;
  const std::int64_t panel_bytes = job.groups * kIntPanel * kIntGroupBytes;
  parallel_for_shards(
      int_panels(job.n), kReductionShards,
      shard_grain(2 * group_cost * std::max<std::int64_t>(job.groups, 1)),
      [&](std::size_t, std::int64_t begin, std::int64_t end) {
        if (begin >= end) return;
        const std::int64_t j0 = begin * kIntPanel;
        IntTileJob part = job;
        part.n = std::min(job.n, end * kIntPanel) - j0;
        part.b = static_cast<const unsigned char*>(job.b) + begin * panel_bytes;
        part.epi.out =
            static_cast<unsigned char*>(job.epi.out) + j0 * job.epi.out_bytes;
        if (job.epi.col_add != nullptr) part.epi.col_add = job.epi.col_add + j0;
        int_tiles(level, part);
      });
}

void int_gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* a, const std::int8_t* b,
                 std::int64_t* c) {
  int_gemm_bt_impl(m, n, k, a, b, c);
}

void int_gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int16_t* a, const std::int16_t* b,
                 std::int64_t* c) {
  int_gemm_bt_impl(m, n, k, a, b, c);
}

}  // namespace qnn
