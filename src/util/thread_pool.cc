#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/env.h"

namespace qnn {
namespace {

// Pool telemetry. Per-task timing costs two clock reads per task, so it
// is gated on trace_enabled(); run counts are a single relaxed add and
// stay on unconditionally.
struct PoolMetrics {
  obs::Counter runs, tasks;
  obs::Histogram task_us;
};

PoolMetrics& pool_metrics() {
  obs::Registry& r = obs::Registry::global();
  static PoolMetrics m{
      r.counter("pool.runs"), r.counter("pool.tasks"),
      r.histogram("pool.task_us",
                  obs::exponential_bounds(std::int64_t{1} << 20))};
  return m;
}

// Set while a thread (worker or participating caller) executes pool
// tasks; makes nested run() calls degrade to inline serial execution.
thread_local bool t_in_pool_task = false;

// Per-thread opaque context; propagated from the run() caller to every
// worker for the duration of a job (see thread_pool.h).
thread_local void* t_task_context = nullptr;

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

// Spin-loop hint: keeps the core's pipeline and power state polite
// while polling an atomic the sibling hyperthread / another core owns.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  QNN_CHECK_MSG(threads >= 1, "thread pool needs at least one thread");
  hw_threads_ = hardware_threads();
  // Spinning between jobs only pays when each worker can own a core;
  // oversubscribed pools go straight to the condvar so idle workers
  // never steal cycles from the thread doing real work.
  spin_iters_ = threads <= hw_threads_ ? kWorkerSpinIters : 0;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    // Pair with the workers' predicate check so none sleeps through it.
    std::lock_guard<std::mutex> lock(m_);
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::in_worker() { return t_in_pool_task; }

void* ThreadPool::task_context() { return t_task_context; }

void ThreadPool::set_task_context(void* ctx) { t_task_context = ctx; }

std::int64_t ThreadPool::claim_batch(std::int64_t count, int threads) {
  const std::int64_t target =
      count / (static_cast<std::int64_t>(threads) * kClaimFactor);
  return std::clamp<std::int64_t>(target, 1, kClaimBatchMax);
}

void ThreadPool::execute_tasks(Job& job) {
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  void* const prev_context = t_task_context;
  t_task_context = job.context;
  const std::int64_t batch = job.batch;
  for (;;) {
    if (job.failed.load(std::memory_order_acquire)) break;
    const std::int64_t i0 = job.next.fetch_add(batch,
                                               std::memory_order_relaxed);
    if (i0 >= job.count) break;
    // A claimed batch runs to completion even if another thread records
    // a failure meanwhile — the batched analogue of the per-task rule
    // "claimed tasks finish, unclaimed tasks are skipped". The recorded
    // exception is still the minimum over every index that threw.
    const std::int64_t i1 = std::min(job.count, i0 + batch);
    for (std::int64_t i = i0; i < i1; ++i) {
      try {
        if (obs::trace_enabled()) {
          obs::TraceSpan span("pool_task", "pool", i);
          const auto t0 = std::chrono::steady_clock::now();
          job.invoke(job.arg, i);
          PoolMetrics& pm = pool_metrics();
          pm.tasks.inc();
          pm.task_us.observe(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
        } else {
          job.invoke(job.arg, i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.m);
        if (job.error_index < 0 || i < job.error_index) {
          job.error = std::current_exception();
          job.error_index = i;
        }
        job.failed.store(true, std::memory_order_release);
      }
    }
  }
  t_in_pool_task = was_in_task;
  t_task_context = prev_context;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t gen = generation_.load(std::memory_order_acquire);
    // Brief spin before sleeping: back-to-back run() calls (layer batch
    // loops issue many small jobs in sequence) then skip the condvar
    // wake/sleep round-trip entirely. Disabled (spin_iters_ == 0) when
    // the pool oversubscribes the hardware.
    for (int i = 0; gen == seen && i < spin_iters_; ++i) {
      if (stop_.load(std::memory_order_relaxed)) return;
      cpu_relax();
      gen = generation_.load(std::memory_order_acquire);
    }
    if (gen == seen) {
      std::unique_lock<std::mutex> lock(m_);
      wake_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_relaxed) != seen;
      });
      gen = generation_.load(std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    seen = gen;
    // Attach before loading the job pointer: if the load sees a live
    // job, this increment is already visible to the caller's
    // post-unpublish attached_ check (all seq_cst), so the job cannot
    // leave scope while this worker holds it.
    attached_.fetch_add(1, std::memory_order_seq_cst);
    Job* job = job_.load(std::memory_order_seq_cst);
    if (job != nullptr) execute_tasks(*job);
    if (attached_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      // Empty lock pairs with the caller's predicate check under m_ so
      // the notify cannot land between its check and its wait.
      { std::lock_guard<std::mutex> lock(m_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(std::int64_t count,
                     const std::function<void(std::int64_t)>& fn) {
  run_raw(
      count,
      [](void* arg, std::int64_t i) {
        (*static_cast<const std::function<void(std::int64_t)>*>(arg))(i);
      },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

void ThreadPool::run_raw(std::int64_t count, RawFn invoke, void* arg) {
  if (count <= 0) return;
  if (count == 1 || workers_.empty() || in_worker()) {
    // Inline serial path: identical to the 1-thread execution order, and
    // the policy for nested parallel regions.
    for (std::int64_t i = 0; i < count; ++i) invoke(arg, i);
    return;
  }
  // Workers the hardware can actually host alongside this thread; an
  // oversubscribed pool wakes only that many. On a single core that is
  // zero and the job runs entirely inline — scheduling only, never
  // bytes (the shard plan fixed those already). Tasks still observe
  // in_worker(), exactly as when the caller participates via
  // execute_tasks, so nested loops keep degrading to serial.
  const int spare = std::min<int>(static_cast<int>(workers_.size()),
                                  hw_threads_ - 1);
  if (spare == 0) {
    t_in_pool_task = true;
    try {
      for (std::int64_t i = 0; i < count; ++i) invoke(arg, i);
    } catch (...) {
      t_in_pool_task = false;
      throw;
    }
    t_in_pool_task = false;
    return;
  }

  std::lock_guard<std::mutex> top(run_m_);
  pool_metrics().runs.inc();
  Job job;
  job.invoke = invoke;
  job.arg = arg;
  job.context = t_task_context;
  job.count = count;
  job.batch = claim_batch(count, size());
  job_.store(&job, std::memory_order_seq_cst);
  generation_.fetch_add(1, std::memory_order_seq_cst);
  {
    // Pair with the sleeping workers' predicate check; spinning workers
    // see the generation bump without this.
    std::lock_guard<std::mutex> lock(m_);
  }
  // Don't wake workers the job can't feed: count tasks need at most
  // count - 1 helpers. Spinning workers join on their own.
  const std::int64_t helpers =
      std::min<std::int64_t>(spare, count - 1);
  if (helpers >= static_cast<std::int64_t>(workers_.size())) {
    wake_cv_.notify_all();
  } else {
    for (std::int64_t i = 0; i < helpers; ++i) wake_cv_.notify_one();
  }
  execute_tasks(job);
  // Unpublish the job, then wait for every attached worker to detach so
  // `job` can safely leave scope. Workers typically detach within the
  // claim of their last batch, so spin briefly before sleeping.
  job_.store(nullptr, std::memory_order_seq_cst);
  if (attached_.load(std::memory_order_seq_cst) != 0) {
    for (int i = 0;
         i < kWorkerSpinIters && attached_.load(std::memory_order_seq_cst) != 0;
         ++i)
      cpu_relax();
    if (attached_.load(std::memory_order_seq_cst) != 0) {
      std::unique_lock<std::mutex> lock(m_);
      done_cv_.wait(lock, [&] {
        return attached_.load(std::memory_order_seq_cst) == 0;
      });
    }
  }
  if (job.error) std::rethrow_exception(job.error);
}

int ThreadPool::env_threads() {
  const int fallback = hardware_threads();
  return static_cast<int>(env::read_env<long>(
      "QNN_THREADS", "an integer in [1, " + std::to_string(kMaxEnvThreads) + "]",
      fallback, "hardware_concurrency=" + std::to_string(fallback),
      [](const std::string& v) {
        return env::parse_integer(v, 1, kMaxEnvThreads);
      }));
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(env_threads());
  return *slot;
}

int ThreadPool::set_global_threads(int threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  auto& slot = global_slot();
  const int previous = slot ? slot->size() : env_threads();
  slot.reset();  // join old workers before spawning replacements
  slot = std::make_unique<ThreadPool>(std::max(threads, 1));
  return previous;
}

std::vector<Shard> make_shards(std::int64_t total, std::int64_t max_shards,
                               std::int64_t grain) {
  std::vector<Shard> shards;
  if (total <= 0) return shards;
  QNN_CHECK(max_shards >= 1);
  QNN_CHECK(grain >= 1);
  const std::int64_t by_grain = std::max<std::int64_t>(1, total / grain);
  const std::int64_t n = std::min({total, max_shards, by_grain});
  const std::int64_t base = total / n;
  const std::int64_t rem = total % n;
  shards.reserve(static_cast<std::size_t>(n));
  std::int64_t begin = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t len = base + (i < rem ? 1 : 0);
    shards.push_back({begin, begin + len});
    begin += len;
  }
  return shards;
}

}  // namespace qnn
