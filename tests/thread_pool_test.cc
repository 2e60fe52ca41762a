// Unit tests for the deterministic parallel runtime: shard plans,
// inline fallbacks, exception policy, pool reuse, and nesting.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "test_env.h"

namespace qnn {
namespace {

TEST(MakeShards, CoversRangeContiguously) {
  const auto shards = make_shards(10, 4);
  ASSERT_EQ(shards.size(), 4u);
  std::int64_t expect_begin = 0;
  std::int64_t total = 0;
  for (const Shard& s : shards) {
    EXPECT_EQ(s.begin, expect_begin);
    EXPECT_GT(s.size(), 0);
    expect_begin = s.end;
    total += s.size();
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(shards.back().end, 10);
}

TEST(MakeShards, EarlierShardsTakeRemainder) {
  // 10 = 3 + 3 + 2 + 2: remainder goes to the front.
  const auto shards = make_shards(10, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0].size(), 3);
  EXPECT_EQ(shards[1].size(), 3);
  EXPECT_EQ(shards[2].size(), 2);
  EXPECT_EQ(shards[3].size(), 2);
}

TEST(MakeShards, CapsAtTotal) {
  const auto shards = make_shards(3, 16);
  ASSERT_EQ(shards.size(), 3u);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(shards[static_cast<std::size_t>(i)].begin, i);
    EXPECT_EQ(shards[static_cast<std::size_t>(i)].end, i + 1);
  }
}

TEST(MakeShards, ZeroTotalYieldsNoShards) {
  EXPECT_TRUE(make_shards(0, 8).empty());
}

TEST(MakeShards, PlanIgnoresThreadCount) {
  // The determinism contract: the plan is a function of the problem
  // size only, so it cannot change when the pool is resized.
  const auto plan = make_shards(1000, kReductionShards);
  ThreadPool::set_global_threads(3);
  const auto plan2 = make_shards(1000, kReductionShards);
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  ASSERT_EQ(plan.size(), plan2.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].begin, plan2[i].begin);
    EXPECT_EQ(plan[i].end, plan2[i].end);
  }
}

TEST(ThreadPool, SizeOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> hits(8, 0);
  std::vector<std::int64_t> order;
  pool.run(8, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
    order.push_back(i);
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  // The inline path runs serially in index order on the calling thread.
  std::vector<std::int64_t> expect(8);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(100);
  pool.run(100,
           [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyTaskSetIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.run(0, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, RethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Every task throws; the policy guarantees the recorded exception is
  // the lowest claimed index, and index 0 is always claimed first.
  try {
    pool.run(16, [](std::int64_t i) {
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "run() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  }
}

TEST(ThreadPool, SkipsUnclaimedTasksAfterFailure) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.run(10000,
                        [&](std::int64_t i) {
                          if (i == 0) throw std::runtime_error("boom");
                          ++executed;
                        }),
               std::runtime_error);
  // Tasks claimed before the failure was flagged may finish, but the
  // bulk of the range is abandoned.
  EXPECT_LT(executed.load(), 10000);
}

TEST(ThreadPool, IsReusableAcrossRuns) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.run(17, [&](std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
  // Still usable after an exception.
  EXPECT_THROW(
      pool.run(4, [](std::int64_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  pool.run(5, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, NestedParallelRunExecutesInline) {
  ThreadPool::set_global_threads(4);
  std::atomic<int> outer{0};
  std::vector<std::vector<std::int64_t>> inner_order(4);
  parallel_run(4, [&](std::int64_t oi) {
    ++outer;
    EXPECT_TRUE(ThreadPool::in_worker());
    // The nested loop must degrade to serial index order on this thread.
    parallel_run(8, [&](std::int64_t ii) {
      inner_order[static_cast<std::size_t>(oi)].push_back(ii);
    });
  });
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  EXPECT_EQ(outer.load(), 4);
  std::vector<std::int64_t> expect(8);
  std::iota(expect.begin(), expect.end(), 0);
  for (const auto& order : inner_order) EXPECT_EQ(order, expect);
}

TEST(ThreadPool, ParallelRunHandlesDegenerateCounts) {
  int hits = 0;
  parallel_run(0, [&](std::int64_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  parallel_run(-3, [&](std::int64_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  parallel_run(1, [&](std::int64_t i) {
    EXPECT_EQ(i, 0);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPool, SetGlobalThreadsResizesPool) {
  ThreadPool::set_global_threads(5);
  EXPECT_EQ(ThreadPool::global().size(), 5);
  ThreadPool::set_global_threads(0);  // clamped to >= 1
  EXPECT_EQ(ThreadPool::global().size(), 1);
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  EXPECT_EQ(ThreadPool::global().size(), ThreadPool::env_threads());
}

TEST(MakeShards, GrainStopsSplittingSmallLoops) {
  // 100 items at grain 200: the whole loop is below one grain of work,
  // so the plan is a single shard (which parallel_run executes inline).
  const auto one = make_shards(100, kReductionShards, 200);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].begin, 0);
  EXPECT_EQ(one[0].end, 100);
  // 1000 items at grain 64 support floor(1000 / 64) = 15 shards, one
  // below the kReductionShards cap.
  EXPECT_EQ(make_shards(1000, kReductionShards, 64).size(), 15u);
  // Ample work: the cap binds, grain is irrelevant.
  EXPECT_EQ(make_shards(1 << 20, kReductionShards, 64).size(),
            static_cast<std::size_t>(kReductionShards));
  // Grain never drops a shard below `grain` items (except the single-
  // shard plan, which may be the whole short loop).
  for (const Shard& s : make_shards(1000, kReductionShards, 64))
    EXPECT_GE(s.size(), 64);
}

TEST(MakeShards, GrainPlanIgnoresThreadCount) {
  const auto plan = make_shards(100000, kReductionShards, 4096);
  ThreadPool::set_global_threads(7);
  const auto plan2 = make_shards(100000, kReductionShards, 4096);
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  ASSERT_EQ(plan.size(), plan2.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].begin, plan2[i].begin);
    EXPECT_EQ(plan[i].end, plan2[i].end);
  }
}

TEST(MakeShards, ShardGrainMath) {
  // grain = ceil(kMinShardWork / cost_per_item), with a defensive
  // fallback for nonsense costs.
  EXPECT_EQ(shard_grain(1), kMinShardWork);
  EXPECT_EQ(shard_grain(kMinShardWork), 1);
  EXPECT_EQ(shard_grain(kMinShardWork + 1), 1);
  EXPECT_EQ(shard_grain(kMinShardWork - 1), 2);
  EXPECT_EQ(shard_grain(3), (kMinShardWork + 2) / 3);
  EXPECT_EQ(shard_grain(0), kMinShardWork);
  EXPECT_EQ(shard_grain(-5), kMinShardWork);
}

TEST(ThreadPool, PaddedSlotsOccupyWholeCacheLines) {
  static_assert(sizeof(Padded<double>) == kCacheLineBytes);
  static_assert(alignof(Padded<double>) == kCacheLineBytes);
  static_assert(sizeof(Padded<std::int64_t>) == kCacheLineBytes);
  // Adjacent reduction slots land on distinct lines.
  std::vector<Padded<double>> slots(4);
  for (std::size_t i = 1; i < slots.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&slots[i - 1].v);
    const auto b = reinterpret_cast<std::uintptr_t>(&slots[i].v);
    EXPECT_GE(b - a, kCacheLineBytes);
  }
}

TEST(ThreadPool, ClaimBatchScalesWithWorkPerThread) {
  // count / (threads * kClaimFactor), clamped to [1, kClaimBatchMax].
  EXPECT_EQ(ThreadPool::claim_batch(16, 4), 1);
  EXPECT_EQ(ThreadPool::claim_batch(100, 4), 6);
  EXPECT_EQ(ThreadPool::claim_batch(1024, 4), 64);
  EXPECT_EQ(ThreadPool::claim_batch(1 << 20, 2), ThreadPool::kClaimBatchMax);
  EXPECT_EQ(ThreadPool::claim_batch(1, 8), 1);
  EXPECT_EQ(ThreadPool::claim_batch(0, 8), 1);
}

TEST(ThreadPool, BatchedClaimingCoversEveryIndexOnce) {
  // Counts straddling the batch boundaries of claim_batch(count, 4):
  // exactly-one-execution must hold regardless of how the range tiles
  // into batches.
  ThreadPool pool(4);
  for (const std::int64_t count :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{15}, std::int64_t{16},
        std::int64_t{17}, std::int64_t{63}, std::int64_t{64}, std::int64_t{65},
        std::int64_t{100}, std::int64_t{1000}, std::int64_t{4099}}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
    pool.run(count,
             [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "count=" << count;
  }
}

TEST(ThreadPool, RethrowsMinimumThrownIndexUnderBatchedClaiming) {
  // Several tasks scattered across different claim batches throw; the
  // rethrown exception must carry the smallest index that actually
  // threw, not merely whichever failure was recorded first.
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::int64_t> threw;
  try {
    pool.run(1000, [&](std::int64_t i) {
      if (i % 97 == 13) {
        {
          std::lock_guard<std::mutex> lock(m);
          threw.push_back(i);
        }
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "run() must rethrow";
  } catch (const std::runtime_error& e) {
    ASSERT_FALSE(threw.empty());
    const std::int64_t lowest = *std::min_element(threw.begin(), threw.end());
    EXPECT_EQ(std::stoll(e.what()), lowest);
  }
}

TEST(ThreadPool, StressResizeInterleavedWithRuns) {
  // Pool teardown/rebuild interleaved with real work: every run must
  // still execute each index exactly once, and no resize may deadlock
  // against workers mid-spin or mid-sleep.
  for (int round = 0; round < 24; ++round) {
    ThreadPool::set_global_threads((round % 4) + 1);
    std::atomic<std::int64_t> sum{0};
    parallel_run(257, [&](std::int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 257 * 256 / 2) << "round " << round;
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(ThreadPool, SpinOnlyWhenPoolFitsHardware) {
  // A one-thread pool trivially fits; a pool one wider than the machine
  // must not spin (idle spinners would preempt the working threads).
  ThreadPool fits(1);
  EXPECT_EQ(fits.spin_iterations(), ThreadPool::kWorkerSpinIters);
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool oversub(hw + 1);
  EXPECT_EQ(oversub.spin_iterations(), 0);
}

// QNN_THREADS's range edges; env_test tabulates every variable.
int env_threads_for(const char* value) {
  ScopedEnv env("QNN_THREADS");
  env.set(value);
  return ThreadPool::env_threads();
}

int fallback_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

TEST(EnvThreadsTest, ParsesValidValues) {
  EXPECT_EQ(env_threads_for("3"), 3);
  EXPECT_EQ(env_threads_for("1"), 1);
  ScopedEnv env("QNN_THREADS");
  env.unset();
  EXPECT_EQ(ThreadPool::env_threads(), fallback_threads());
}

TEST(EnvThreadsTest, RejectsZero) {
  EXPECT_EQ(env_threads_for("0"), fallback_threads());
}

TEST(EnvThreadsTest, RejectsNegative) {
  EXPECT_EQ(env_threads_for("-3"), fallback_threads());
}

TEST(EnvThreadsTest, RejectsGarbage) {
  for (const char* v : {"abc", "", "4x"})
    EXPECT_EQ(env_threads_for(v), fallback_threads()) << v;
}

TEST(EnvThreadsTest, RejectsExponentAndOverflow) {
  // "1e9" is not an integer (trailing junk), and huge plain integers
  // exceed kMaxEnvThreads; neither may be silently truncated atoi-style.
  for (const char* v : {"1e9", "1000000000", "99999999999999999999"})
    EXPECT_EQ(env_threads_for(v), fallback_threads()) << v;
}

TEST(ThreadPool, ParallelForShardsMatchesPlan) {
  const auto plan = make_shards(100, kReductionShards);
  std::vector<Shard> seen(plan.size());
  parallel_for_shards(100, kReductionShards,
                      [&](std::size_t si, std::int64_t begin,
                          std::int64_t end) {
                        seen[si] = Shard{begin, end};
                      });
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(seen[i].begin, plan[i].begin);
    EXPECT_EQ(seen[i].end, plan[i].end);
  }
}

}  // namespace
}  // namespace qnn
