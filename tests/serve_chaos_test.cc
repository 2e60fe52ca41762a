// Chaos harness for the fault-tolerant serving layer (DESIGN.md §13).
//
// Three contracts under injected executor faults (hang / corrupt /
// crash):
//
//   1. Determinism: a chaos replay — output bytes, batch composition,
//      tier assignments, AND the health-transition log — is
//      bit-identical at 1, 4, and 8 worker threads and with tracing
//      on vs. off. Fault injection is part of the virtual-time event
//      order, not a source of nondeterminism.
//   2. Conservation: every admitted request leaves the pipeline exactly
//      once (served, expired, or failed), across hand-written schedules
//      (crash-during-batch, corrupt-then-rescrub, hang-trips-watchdog)
//      and randomized make_chaos_schedule sweeps. No double publication:
//      response ids are unique.
//   3. Policy: retry-with-redirect serves strictly more requests within
//      deadline than the fail-stop baseline under the same faults, and
//      lane loss tightens admission at the edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "faults/lane_faults.h"
#include "obs/trace.h"
#include "serve/arrivals.h"
#include "serve/health.h"
#include "serve/server.h"
#include "serve/tiers.h"
#include "test_env.h"
#include "testing/serve_chaos.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::serve {
namespace {

void expect_conserved(const ServeStats& s) {
  EXPECT_EQ(s.offered, s.admitted + s.rejected_full + s.rejected_expired +
                           s.rejected_shutdown);
  EXPECT_EQ(s.admitted, s.served + s.expired_in_queue + s.failed);
  EXPECT_EQ(s.served, s.served_within_deadline + s.served_late);
  std::int64_t per_tier = 0;
  for (std::int64_t n : s.served_per_tier) per_tier += n;
  EXPECT_EQ(per_tier, s.served);
}

// No double publication: each response id appears exactly once.
void expect_unique_responses(const ServeResult& r) {
  std::set<std::int64_t> seen;
  for (const Response& resp : r.responses) {
    EXPECT_TRUE(seen.insert(resp.id).second)
        << "request " << resp.id << " published twice";
  }
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
    EXPECT_EQ(ra.completion, rb.completion) << what << " response " << i;
    ASSERT_EQ(ra.output.size(), rb.output.size()) << what;
    for (std::size_t j = 0; j < ra.output.size(); ++j) {
      EXPECT_EQ(ra.output[j], rb.output[j])  // bit identity, not tolerance
          << what << " response " << i << " logit " << j;
    }
  }
  ASSERT_EQ(a.batches.size(), b.batches.size()) << what;
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].tier, b.batches[i].tier) << what;
    EXPECT_EQ(a.batches[i].replica, b.batches[i].replica) << what;
    EXPECT_EQ(a.batches[i].attempt, b.batches[i].attempt) << what;
    EXPECT_EQ(a.batches[i].dispatch, b.batches[i].dispatch) << what;
    EXPECT_EQ(a.batches[i].request_ids, b.batches[i].request_ids) << what;
  }
  // The health-transition log is part of the replay identity.
  ASSERT_EQ(a.health_log.size(), b.health_log.size()) << what;
  for (std::size_t i = 0; i < a.health_log.size(); ++i) {
    EXPECT_EQ(a.health_log[i], b.health_log[i])
        << what << " transition " << i << ": "
        << transition_to_string(a.health_log[i]) << " vs "
        << transition_to_string(b.health_log[i]);
  }
  EXPECT_EQ(a.stats.served, b.stats.served) << what;
  EXPECT_EQ(a.stats.failed, b.stats.failed) << what;
  EXPECT_EQ(a.stats.hung_batches, b.stats.hung_batches) << what;
  EXPECT_EQ(a.stats.corrupt_batches, b.stats.corrupt_batches) << what;
  EXPECT_EQ(a.stats.crashed_batches, b.stats.crashed_batches) << what;
  EXPECT_EQ(a.stats.retries, b.stats.retries) << what;
  EXPECT_EQ(a.stats.redirected, b.stats.redirected) << what;
  EXPECT_EQ(a.stats.rescrubs, b.stats.rescrubs) << what;
  EXPECT_EQ(a.stats.end_tick, b.stats.end_tick) << what;
}

// --- determinism -------------------------------------------------------

TEST(ChaosDeterminism, ReplayIdenticalAt148Threads) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.5, 80);
  const ServerConfig cfg = chaos_config(tiers, &schedule);

  ScopedGlobalThreads one(1);
  const ServeResult r1 = run_once(trace, cfg);
  ServeResult r4, r8;
  {
    ScopedGlobalThreads four(4);
    r4 = run_once(trace, cfg);
  }
  {
    ScopedGlobalThreads eight(8);
    r8 = run_once(trace, cfg);
  }
  ASSERT_GT(r1.responses.size(), 0u);
  EXPECT_FALSE(r1.health_log.empty())
      << "schedule must actually wound some lanes";
  EXPECT_GT(r1.stats.hung_batches + r1.stats.corrupt_batches +
                r1.stats.crashed_batches,
            0);
  expect_identical(r1, r4, "1 vs 4 threads");
  expect_identical(r1, r8, "1 vs 8 threads");
}

TEST(ChaosDeterminism, TracingOnEqualsTracingOff) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.5, 60);
  const ServerConfig cfg = chaos_config(tiers, &schedule);
  TraceGuard guard;
  obs::set_trace_enabled(false);
  const ServeResult off = run_once(trace, cfg);
  obs::set_trace_enabled(true);
  const ServeResult on = run_once(trace, cfg);
  expect_identical(off, on, "tracing off vs on");
}

// --- conservation under specific fault shapes --------------------------

TEST(ChaosConservation, CrashDuringBatchRedispatchesInFlightWork) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  faults::LaneFaultSchedule s;
  faults::LaneFault crash;
  crash.kind = faults::LaneFaultKind::kCrashLane;
  crash.tier = 0;
  crash.replica = 0;
  crash.at_tick = 1;  // mid-service of the first dispatched batch
  s.faults.push_back(crash);

  const ArrivalTrace trace = chaos_trace(tiers, 1.0, 30);
  ServerConfig cfg = chaos_config(tiers, &s);
  cfg.batcher.batch_window = 0;  // first request dispatches at tick 0
  const ServeResult r = run_once(trace, cfg);
  EXPECT_EQ(r.stats.crashed_batches, 1);
  EXPECT_GT(r.stats.retries, 0);
  // The sibling replica absorbed the lost batch: nothing was dropped.
  EXPECT_EQ(r.stats.failed, 0);
  EXPECT_EQ(r.stats.served, r.stats.admitted - r.stats.expired_in_queue);
  expect_conserved(r.stats);
  expect_unique_responses(r);
  // The crash shows up in the health log exactly once.
  std::int64_t crashes = 0;
  for (const HealthTransition& t : r.health_log) {
    if (t.reason == HealthReason::kCrash) ++crashes;
  }
  EXPECT_EQ(crashes, 1);
}

TEST(ChaosConservation, CorruptThenRescrubRepairsLane) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  faults::LaneFaultSchedule s;
  faults::LaneFault corrupt;
  corrupt.kind = faults::LaneFaultKind::kCorruptLane;
  corrupt.tier = 0;
  corrupt.replica = 0;
  corrupt.at_tick = 0;
  corrupt.corrupt_flips = 16;
  corrupt.seed = 123;
  s.faults.push_back(corrupt);

  const ArrivalTrace trace = chaos_trace(tiers, 1.0, 30);
  const ServerConfig cfg = chaos_config(tiers, &s);
  const ServeResult r = run_once(trace, cfg);
  // The audit caught the corruption at the first completion, the result
  // was discarded (never published), and the rescrub repaired the lane.
  EXPECT_GE(r.stats.corrupt_batches, 1);
  EXPECT_GE(r.stats.rescrubs, 1);
  EXPECT_GE(r.stats.discarded_results, 1);
  EXPECT_EQ(r.stats.failed, 0);
  expect_conserved(r.stats);
  expect_unique_responses(r);
  bool quarantined = false, repaired = false;
  for (const HealthTransition& t : r.health_log) {
    if (t.to == LaneState::kQuarantined &&
        t.reason == HealthReason::kCorruptDetected) {
      quarantined = true;
    }
    if (t.to == LaneState::kHealthy &&
        t.reason == HealthReason::kRescrubbed) {
      repaired = true;
    }
  }
  EXPECT_TRUE(quarantined);
  EXPECT_TRUE(repaired);
}

TEST(ChaosConservation, HangTripsWatchdogAndRetriesOnSibling) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  faults::LaneFaultSchedule s;
  faults::LaneFault hang;
  hang.kind = faults::LaneFaultKind::kHangLane;
  hang.tier = 0;
  hang.replica = 0;
  hang.at_tick = 0;
  hang.hang_ticks = 100 * tiers[0].ticks_per_image;
  s.faults.push_back(hang);

  const ArrivalTrace trace = chaos_trace(tiers, 1.0, 30);
  const ServerConfig cfg = chaos_config(tiers, &s);
  const ServeResult r = run_once(trace, cfg);
  EXPECT_EQ(r.stats.hung_batches, 1);
  EXPECT_GT(r.stats.retries, 0);
  // The doomed result was discarded when the wedged lane finally
  // finished; the batch itself was served by the retry.
  EXPECT_GE(r.stats.discarded_results, 1);
  EXPECT_EQ(r.stats.failed, 0);
  expect_conserved(r.stats);
  expect_unique_responses(r);
}

TEST(ChaosConservation, RandomizedSchedulesHoldTheInvariant) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const ArrivalTrace trace = chaos_trace(tiers, 2.0, 60);
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    faults::ChaosSpec spec;
    spec.num_faults = 6;
    spec.horizon_ticks = 30 * tiers[0].ticks_per_image;
    spec.num_tiers = 3;
    spec.replicas_per_tier = 2;
    spec.mean_hang_ticks = 50 * tiers[0].ticks_per_image;
    spec.seed = seed;
    const faults::LaneFaultSchedule schedule = faults::make_chaos_schedule(spec);
    const ServerConfig cfg = chaos_config(tiers, &schedule);
    const ServeResult r = run_once(trace, cfg);
    expect_conserved(r.stats);
    expect_unique_responses(r);
  }
}

TEST(ChaosConservation, AllLanesDeadFailsRemainingWorkExactlyOnce) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  faults::LaneFaultSchedule s;
  for (int t = 0; t < 3; ++t) {
    for (int rep = 0; rep < 2; ++rep) {
      faults::LaneFault crash;
      crash.kind = faults::LaneFaultKind::kCrashLane;
      crash.tier = t;
      crash.replica = rep;
      crash.at_tick = 0;
      s.faults.push_back(crash);
    }
  }
  const ArrivalTrace trace = chaos_trace(tiers, 1.0, 20);
  const ServerConfig cfg = chaos_config(tiers, &s);
  const ServeResult r = run_once(trace, cfg);
  EXPECT_EQ(r.stats.served, 0);
  EXPECT_GT(r.stats.failed + r.stats.expired_in_queue, 0);
  expect_conserved(r.stats);
}

// --- redirect policy beats fail-stop -----------------------------------

TEST(ChaosPolicy, RedirectServesMoreThanFailStopUnderSameFaults) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.0, 80);
  ServerConfig redirect = chaos_config(tiers, &schedule);
  redirect.executor.redirect_on_failure = true;
  ServerConfig failstop = chaos_config(tiers, &schedule);
  failstop.executor.redirect_on_failure = false;

  const ServeResult rr = run_once(trace, redirect);
  const ServeResult rf = run_once(trace, failstop);
  expect_conserved(rr.stats);
  expect_conserved(rf.stats);
  EXPECT_GT(rr.stats.served_within_deadline, rf.stats.served_within_deadline)
      << "retry-with-redirect must beat fail-stop under the same faults";
  EXPECT_GT(rf.stats.failed, 0) << "fail-stop must actually drop work";
  EXPECT_EQ(rf.stats.rescrubs, 0) << "fail-stop never repairs lanes";
}

// Fail-stop turns a hung lane's batch into failed requests; redirect
// never loses them. Down-lattice redirect engages when a whole tier is
// out: kill both tier-0 lanes and the work lands on tier 1.
TEST(ChaosPolicy, WholeTierLossRedirectsDownTheLattice) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  faults::LaneFaultSchedule s;
  for (int rep = 0; rep < 2; ++rep) {
    faults::LaneFault crash;
    crash.kind = faults::LaneFaultKind::kCrashLane;
    crash.tier = 0;
    crash.replica = rep;
    crash.at_tick = 0;
    s.faults.push_back(crash);
  }
  const ArrivalTrace trace = chaos_trace(tiers, 1.0, 30);
  const ServerConfig cfg = chaos_config(tiers, &s);
  const ServeResult r = run_once(trace, cfg);
  expect_conserved(r.stats);
  EXPECT_EQ(r.stats.failed, 0);
  EXPECT_GT(r.stats.redirected, 0);
  EXPECT_EQ(r.stats.served_per_tier[0], 0) << "tier 0 is dead";
  EXPECT_GT(r.stats.served_per_tier[1], 0)
      << "work must land one tier down the lattice";
  for (const BatchRecord& b : r.batches) EXPECT_NE(b.tier, 0);
}

// --- admission feels lane loss -----------------------------------------

TEST(ChaosAdmission, LaneLossTightensTheAdmissionBound) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  // Kill half the lanes at tick 0, then offer a hard burst.
  faults::LaneFaultSchedule s;
  for (int t = 0; t < 3; ++t) {
    faults::LaneFault crash;
    crash.kind = faults::LaneFaultKind::kCrashLane;
    crash.tier = t;
    crash.replica = 0;
    crash.at_tick = 0;
    s.faults.push_back(crash);
  }
  const ArrivalTrace trace = chaos_trace(tiers, 8.0, 120, /*deadline_mult=*/8);
  const ServerConfig healthy_cfg = chaos_config(tiers, nullptr);
  const ServerConfig wounded_cfg = chaos_config(tiers, &s);
  const ServeResult healthy = run_once(trace, healthy_cfg);
  const ServeResult wounded = run_once(trace, wounded_cfg);
  expect_conserved(healthy.stats);
  expect_conserved(wounded.stats);
  // Half the lanes gone halves the effective admission bound, so the
  // wounded server sheds strictly more load at the edge.
  EXPECT_GT(wounded.stats.rejected_full, healthy.stats.rejected_full);
}

// --- shutdown drain with dead/quarantined lanes (batcher x watchdog) ---

TEST(ChaosDrain, ShutdownWithDeadTierDrainsWithoutReadmission) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  faults::LaneFaultSchedule s;
  for (int rep = 0; rep < 2; ++rep) {
    faults::LaneFault crash;
    crash.kind = faults::LaneFaultKind::kCrashLane;
    crash.tier = 2;
    crash.replica = rep;
    crash.at_tick = 0;
    s.faults.push_back(crash);
  }
  const ArrivalTrace trace = chaos_trace(tiers, 4.0, 60, /*deadline_mult=*/16);
  ServerConfig cfg = chaos_config(tiers, &s);
  // Short dwell so the controller walks down to the (dead) cheapest tier
  // during the burst — requests get ASSIGNED tier 2 and must be
  // redirected back up, including through the shutdown flush.
  cfg.controller.dwell_ticks = tiers[0].ticks_per_image / 4;
  cfg.shutdown_tick = trace.requests[30].arrival;
  const ServeResult r = run_once(trace, cfg);
  expect_conserved(r.stats);
  // run_trace itself checks the batcher fully drained (pending_total 0)
  // and the executor went idle; here: nothing executed on the dead tier.
  EXPECT_EQ(r.stats.served_per_tier[2], 0);
  for (const BatchRecord& b : r.batches) EXPECT_NE(b.tier, 2);
  EXPECT_GT(r.stats.redirected, 0)
      << "tier-2-assigned work must have been redirected, not dropped";
  EXPECT_GT(r.stats.rejected_shutdown, 0);
}

// A quarantined (not dead) lane during shutdown drain: flush-closed
// batches wait for the rescrub instead of being re-admitted anywhere
// unsafe, and the drain still completes with pending_total() == 0.
TEST(ChaosDrain, ShutdownWithQuarantinedLaneWaitsForRescrub) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  faults::LaneFaultSchedule s;
  // Corrupt BOTH tier-0 replicas so the whole tier quarantines; with a
  // long rescrub latency the drain must outwait the repair.
  for (int rep = 0; rep < 2; ++rep) {
    faults::LaneFault corrupt;
    corrupt.kind = faults::LaneFaultKind::kCorruptLane;
    corrupt.tier = 0;
    corrupt.replica = rep;
    corrupt.at_tick = 0;
    corrupt.corrupt_flips = 16;
    corrupt.seed = 31 + static_cast<std::uint64_t>(rep);
    s.faults.push_back(corrupt);
  }
  const ArrivalTrace trace = chaos_trace(tiers, 1.0, 20, /*deadline_mult=*/40);
  ServerConfig cfg = chaos_config(tiers, &s);
  cfg.health.quarantine_ticks = 4 * tiers[0].ticks_per_image;
  cfg.shutdown_tick = trace.requests[10].arrival;
  const ServeResult r = run_once(trace, cfg);
  expect_conserved(r.stats);
  expect_unique_responses(r);
  EXPECT_GE(r.stats.corrupt_batches, 1);
  EXPECT_GE(r.stats.rescrubs, 1);
}

// --- stats surface ------------------------------------------------------

TEST(ChaosStats, JsonCarriesFaultToleranceCounters) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.0, 40);
  const ServeResult r = run_once(trace, chaos_config(tiers, &schedule));
  const json::Value v = serve_stats_to_json(r.stats);
  for (const char* key :
       {"failed", "hung_batches", "corrupt_batches", "crashed_batches",
        "retries", "redirected", "rescrubs", "discarded_results"}) {
    EXPECT_TRUE(v.contains(key)) << key;
  }
}

}  // namespace
}  // namespace qnn::serve
