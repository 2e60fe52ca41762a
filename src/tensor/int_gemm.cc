#include "tensor/int_gemm.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace qnn {

void int_gemm_packed(SimdLevel level, const IntTileJob& job) {
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

}  // namespace qnn
