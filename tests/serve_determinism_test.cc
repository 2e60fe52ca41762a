// Determinism regression for the serving layer (DESIGN.md §12): the
// same recorded arrival trace must produce byte-identical responses —
// batch composition, tier assignments, completion ticks, and output
// float bytes — at 1, 4, and 8 worker threads, and with span tracing
// enabled vs. disabled. This is the serving extension of the N-thread
// == 1-thread contract (§9): the event loop is serial virtual time, the
// forwards use ordered reductions, and the p99 feedback reads exact
// integer bucket counts, so nothing observable may depend on the pool
// size or on instrumentation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/inner_product.h"
#include "nn/network.h"
#include "obs/trace.h"
#include "serve/arrivals.h"
#include "serve/server.h"
#include "serve/tiers.h"
#include "test_env.h"
#include "util/thread_pool.h"

namespace qnn::serve {
namespace {

std::unique_ptr<nn::Network> det_net() {
  auto net = std::make_unique<nn::Network>("serve_det");
  net->add<nn::InnerProduct>(12, 24);
  net->add<nn::Relu>();
  net->add<nn::InnerProduct>(24, 10);
  Rng rng(21);
  net->init_weights(rng);
  return net;
}

// One full overload run: build pool + server from scratch each time so
// no state leaks between thread counts.
ServeResult run_once(const ArrivalTrace& trace) {
  auto net = det_net();
  std::vector<TierSpec> tiers = default_tier_lattice();
  derive_tier_costs(*net, Shape{1, 12}, &tiers);
  Tensor calib(Shape{16, 12});
  Rng rng(5);
  calib.fill_uniform(rng, 0, 1);
  ReplicaPool pool(*net, calib, tiers);

  ServerConfig cfg;
  cfg.queue_capacity = 12;
  cfg.batcher.max_batch = 4;
  cfg.batcher.batch_window = tiers[0].ticks_per_image;
  cfg.controller.high_depth_fraction = 0.5;
  cfg.controller.low_depth_fraction = 0.125;
  cfg.controller.p99_high_ticks = 8 * tiers[0].ticks_per_image;
  cfg.controller.p99_low_ticks = 4 * tiers[0].ticks_per_image;
  cfg.controller.dwell_ticks = 2 * tiers[0].ticks_per_image;
  Server server(pool, cfg);
  return server.run_trace(trace);
}

ArrivalTrace overload_trace() {
  // Rate is anchored to the float tier's derived cost so the trace is
  // ~2.5x overload regardless of how the hw model prices the tiny net.
  auto net = det_net();
  std::vector<TierSpec> tiers = default_tier_lattice();
  derive_tier_costs(*net, Shape{1, 12}, &tiers);
  OpenLoopSpec spec;
  spec.num_requests = 80;
  spec.mean_interarrival_ticks =
      static_cast<double>(tiers[0].ticks_per_image) / 2.5;
  spec.relative_deadline_ticks = 12 * tiers[0].ticks_per_image;
  spec.seed = 1234;
  return make_open_loop_trace(spec, {12});
}

void expect_identical(const ServeResult& a, const ServeResult& b,
                      const char* what) {
  EXPECT_EQ(a.digest(), b.digest()) << what;
  ASSERT_EQ(a.responses.size(), b.responses.size()) << what;
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& ra = a.responses[i];
    const Response& rb = b.responses[i];
    EXPECT_EQ(ra.id, rb.id) << what << " response " << i;
    EXPECT_EQ(ra.tier, rb.tier) << what << " response " << i;
    EXPECT_EQ(ra.dispatch, rb.dispatch) << what << " response " << i;
    EXPECT_EQ(ra.completion, rb.completion) << what << " response " << i;
    EXPECT_EQ(ra.predicted, rb.predicted) << what << " response " << i;
    ASSERT_EQ(ra.output.size(), rb.output.size()) << what;
    for (std::size_t j = 0; j < ra.output.size(); ++j) {
      // Bit identity, not tolerance.
      EXPECT_EQ(ra.output[j], rb.output[j])
          << what << " response " << i << " logit " << j;
    }
  }
  ASSERT_EQ(a.batches.size(), b.batches.size()) << what;
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].tier, b.batches[i].tier) << what;
    EXPECT_EQ(a.batches[i].dispatch, b.batches[i].dispatch) << what;
    EXPECT_EQ(a.batches[i].request_ids, b.batches[i].request_ids) << what;
  }
  EXPECT_EQ(a.stats.served, b.stats.served) << what;
  EXPECT_EQ(a.stats.rejected_full, b.stats.rejected_full) << what;
  EXPECT_EQ(a.stats.downshifts, b.stats.downshifts) << what;
  EXPECT_EQ(a.stats.end_tick, b.stats.end_tick) << what;
}

TEST(ServeDeterminism, TraceReplayIdenticalAt148Threads) {
  const ArrivalTrace trace = overload_trace();
  ScopedGlobalThreads one(1);
  const ServeResult r1 = run_once(trace);
  ServeResult r4, r8;
  {
    ScopedGlobalThreads four(4);
    r4 = run_once(trace);
  }
  {
    ScopedGlobalThreads eight(8);
    r8 = run_once(trace);
  }
  ASSERT_GT(r1.responses.size(), 0u);
  EXPECT_GT(r1.stats.downshifts, 0)
      << "trace must actually exercise the overload path";
  expect_identical(r1, r4, "1 vs 4 threads");
  expect_identical(r1, r8, "1 vs 8 threads");
}

TEST(ServeDeterminism, TracingOnEqualsTracingOff) {
  const ArrivalTrace trace = overload_trace();
  TraceGuard guard;
  obs::set_trace_enabled(false);
  const ServeResult off = run_once(trace);
  obs::set_trace_enabled(true);
  const ServeResult on = run_once(trace);
  expect_identical(off, on, "tracing off vs on");
}

// The fixed-point tiers serve through the native integer path
// (DESIGN.md §15) — the replay digests above therefore already pin the
// int path's bytes at 1/4/8 threads. Make the wiring explicit: fixed
// tiers freeze with the engine active, the float tier never does, and
// pool forwards are byte-stable across thread counts.
TEST(ServeDeterminism, FixedTiersServeNativeIntPath) {
  auto net = det_net();
  std::vector<TierSpec> tiers = default_tier_lattice();
  derive_tier_costs(*net, Shape{1, 12}, &tiers);
  Tensor calib(Shape{16, 12});
  Rng rng(5);
  calib.fill_uniform(rng, 0, 1);
  ReplicaPool pool(*net, calib, tiers);

  for (int t = 0; t < pool.num_tiers(); ++t) {
    const bool fixed =
        pool.tier(t).precision.kind == quant::PrecisionKind::kFixed;
    for (int r = 0; r < pool.replicas_per_tier(); ++r) {
      EXPECT_EQ(pool.replica(t, r).native_int_active(), fixed)
          << pool.tier(t).name << " replica " << r;
    }
  }

  Tensor x(Shape{8, 12});
  Rng rng2(9);
  x.fill_uniform(rng2, 0, 1);
  for (int t = 0; t < pool.num_tiers(); ++t) {
    ScopedGlobalThreads one(1);
    const Tensor base = pool.forward(t, 0, x);
    for (int threads : {4, 8}) {
      ScopedGlobalThreads n(threads);
      const Tensor got = pool.forward(t, 0, x);
      ASSERT_EQ(got.count(), base.count());
      for (std::int64_t i = 0; i < got.count(); ++i)
        EXPECT_EQ(got[i], base[i])
            << pool.tier(t).name << " " << threads << " threads elem " << i;
    }
  }
}

TEST(ServeDeterminism, SavedTraceReplaysIdentically) {
  const ArrivalTrace trace = overload_trace();
  const std::string path = ::testing::TempDir() + "/serve_det_trace.json";
  save_trace(path, trace);
  const ServeResult direct = run_once(trace);
  const ServeResult reloaded = run_once(load_trace(path));
  expect_identical(direct, reloaded, "direct vs save/load");
}

}  // namespace
}  // namespace qnn::serve
