// Request-scoped causal tracing + energy attribution (DESIGN.md §14).
//
// Four contracts over the RequestTracer / AttributionLedger pair:
//
//   1. Determinism: with tracing ON under a mixed chaos schedule, the
//      JSONL event log, the lane-execution records, and the attribution
//      ledger are bit-identical at 1, 4, and 8 worker threads; and
//      tracing on vs. off leaves response bytes, ServeResult::digest(),
//      and every attributed energy figure unchanged.
//   2. Causality: a hung batch's requests show the watchdog strike, the
//      retry, and the sibling-lane re-dispatch in causal (append) order
//      with increasing attempt numbers; a whole-tier loss shows the
//      redirect hop (old tier in `detail`) before the down-lattice
//      dispatch, after the crash transition that caused it.
//   3. Attribution: the ledger reconciles with the stats-level energy
//      aggregate (pJ vs uJ), each Response carries exactly its own
//      ledger totals, doomed executions leave a wasted (never
//      published) share, and the SLO roll-up restates conservation.
//   4. Export: the JSONL artifact parses line-by-line with seq == line
//      index, and the chrome-trace document carries one named track per
//      executor lane plus the frontend track.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "faults/lane_faults.h"
#include "obs/ledger.h"
#include "serve/arrivals.h"
#include "serve/health.h"
#include "serve/request_trace.h"
#include "serve/server.h"
#include "serve/slo.h"
#include "serve/tiers.h"
#include "testing/serve_chaos.h"
#include "util/fileio.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace qnn::serve {
namespace {

ServerConfig traced_config(const std::vector<TierSpec>& tiers,
                           const faults::LaneFaultSchedule* chaos,
                           bool trace_requests = true) {
  return chaos_config(tiers, chaos, trace_requests);
}

void expect_ledger_identical(const obs::AttributionLedger& a,
                             const obs::AttributionLedger& b,
                             const char* what) {
  ASSERT_EQ(a.charges().size(), b.charges().size()) << what;
  for (std::size_t i = 0; i < a.charges().size(); ++i) {
    const obs::EnergyCharge& ca = a.charges()[i];
    const obs::EnergyCharge& cb = b.charges()[i];
    EXPECT_EQ(ca.request_id, cb.request_id) << what << " charge " << i;
    EXPECT_EQ(ca.tick, cb.tick) << what << " charge " << i;
    EXPECT_EQ(ca.tier, cb.tier) << what << " charge " << i;
    EXPECT_EQ(ca.lane, cb.lane) << what << " charge " << i;
    EXPECT_EQ(ca.attempt, cb.attempt) << what << " charge " << i;
    EXPECT_EQ(ca.ops, cb.ops) << what << " charge " << i;
    EXPECT_EQ(ca.energy_pj, cb.energy_pj)  // bit identity, not tolerance
        << what << " charge " << i;
    EXPECT_EQ(ca.published, cb.published) << what << " charge " << i;
  }
  EXPECT_EQ(a.total_ops(), b.total_ops()) << what;
  EXPECT_EQ(a.total_energy_pj(), b.total_energy_pj()) << what;
  EXPECT_EQ(a.published_energy_pj(), b.published_energy_pj()) << what;
}

// Index of the first event matching (request, kind), or -1.
std::int64_t first_event(const std::vector<RequestEvent>& events,
                         std::int64_t request_id, RequestEventKind kind) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].request_id == request_id && events[i].kind == kind)
      return static_cast<std::int64_t>(i);
  }
  return -1;
}

// --- determinism --------------------------------------------------------

TEST(TraceDeterminism, JsonlLedgerAndExecutionsIdenticalAt148Threads) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.5, 80);
  const ServerConfig cfg = traced_config(tiers, &schedule);

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
  ASSERT_FALSE(r1.request_events.empty());
  ASSERT_FALSE(r1.lane_executions.empty());
  const std::string jsonl = request_events_to_jsonl(r1.request_events);
  EXPECT_EQ(jsonl, request_events_to_jsonl(r4.request_events))
      << "JSONL must be bit-identical at 1 vs 4 threads";
  EXPECT_EQ(jsonl, request_events_to_jsonl(r8.request_events))
      << "JSONL must be bit-identical at 1 vs 8 threads";
  EXPECT_EQ(r1.lane_executions, r4.lane_executions);
  EXPECT_EQ(r1.lane_executions, r8.lane_executions);
  EXPECT_EQ(r1.lane_names, r4.lane_names);
  expect_ledger_identical(r1.ledger, r4.ledger, "1 vs 4 threads");
  expect_ledger_identical(r1.ledger, r8.ledger, "1 vs 8 threads");
  EXPECT_EQ(r1.digest(), r4.digest());
  EXPECT_EQ(r1.digest(), r8.digest());
}

TEST(TraceDeterminism, TracingOnEqualsOffForReplayAndAttribution) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.5, 60);
  const ServeResult off =
      run_once(trace, traced_config(tiers, &schedule, /*trace=*/false));
  const ServeResult on =
      run_once(trace, traced_config(tiers, &schedule, /*trace=*/true));

  // Tracing is pure observation: the replay fingerprint and every
  // response byte AND attribution figure are unchanged.
  EXPECT_EQ(off.digest(), on.digest());
  ASSERT_EQ(off.responses.size(), on.responses.size());
  for (std::size_t i = 0; i < off.responses.size(); ++i) {
    const Response& a = off.responses[i];
    const Response& b = on.responses[i];
    EXPECT_EQ(a.id, b.id) << "response " << i;
    EXPECT_EQ(a.tier, b.tier) << "response " << i;
    EXPECT_EQ(a.output, b.output) << "response " << i;
    EXPECT_EQ(a.ops, b.ops) << "response " << i;
    EXPECT_EQ(a.energy_pj, b.energy_pj) << "response " << i;
    EXPECT_EQ(a.wasted_energy_pj, b.wasted_energy_pj) << "response " << i;
  }
  // The ledger always runs; only the event/execution logs are gated.
  expect_ledger_identical(off.ledger, on.ledger, "off vs on");
  EXPECT_TRUE(off.request_events.empty());
  EXPECT_TRUE(off.lane_executions.empty());
  EXPECT_FALSE(on.request_events.empty());
  EXPECT_FALSE(on.lane_executions.empty());
}

// --- causality ----------------------------------------------------------

TEST(TraceCausality, HangShowsWatchdogRetryAndSiblingHopInOrder) {
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
  const ServeResult r = run_once(trace, traced_config(tiers, &s));
  ASSERT_EQ(r.stats.hung_batches, 1);

  // The doomed execution names the requests that rode the wedged lane.
  const LaneExecution* doomed = nullptr;
  for (const LaneExecution& ex : r.lane_executions) {
    if (ex.outcome == LaneExecution::Outcome::kDoomed) doomed = &ex;
  }
  ASSERT_NE(doomed, nullptr);
  ASSERT_FALSE(doomed->request_ids.empty());

  for (const std::int64_t id : doomed->request_ids) {
    const auto& ev = r.request_events;
    const std::int64_t d1 = first_event(ev, id, RequestEventKind::kDispatch);
    const std::int64_t h = first_event(ev, id, RequestEventKind::kHang);
    const std::int64_t rt = first_event(ev, id, RequestEventKind::kRetry);
    const std::int64_t c = first_event(ev, id, RequestEventKind::kComplete);
    ASSERT_GE(d1, 0) << "request " << id;
    ASSERT_GT(h, d1) << "watchdog strike after first dispatch";
    ASSERT_GT(rt, h) << "retry after the strike";
    ASSERT_GT(c, rt) << "completion after the retry";
    // The re-dispatch lands on the sibling lane with a bumped attempt.
    bool redispatched = false;
    for (std::size_t i = static_cast<std::size_t>(rt); i < ev.size(); ++i) {
      if (ev[i].request_id != id) continue;
      if (ev[i].kind != RequestEventKind::kDispatch) continue;
      EXPECT_GT(ev[i].attempt, ev[static_cast<std::size_t>(d1)].attempt);
      EXPECT_NE(ev[i].lane, ev[static_cast<std::size_t>(d1)].lane)
          << "retry must leave the wedged lane";
      redispatched = true;
      break;
    }
    EXPECT_TRUE(redispatched) << "request " << id;

    // The ledger shows both attempts: the doomed charge never published.
    const auto charges = r.ledger.charges_for(id);
    ASSERT_GE(charges.size(), 2u) << "request " << id;
    EXPECT_FALSE(charges.front()->published);
    EXPECT_TRUE(charges.back()->published);
    const obs::RequestAttribution attr = r.ledger.totals_for(id);
    EXPECT_GT(attr.wasted_energy_pj(), 0.0)
        << "the doomed execution's energy is wasted, not free";
  }
}

TEST(TraceCausality, WholeTierLossShowsRedirectHopAfterCrash) {
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
  const ServeResult r = run_once(trace, traced_config(tiers, &s));
  ASSERT_GT(r.stats.redirected, 0);

  // Find a response that hopped down the lattice and replay its log.
  const Response* hopped = nullptr;
  for (const Response& resp : r.responses) {
    if (resp.redirects > 0 && resp.admitted_tier == 0) hopped = &resp;
  }
  ASSERT_NE(hopped, nullptr);
  EXPECT_NE(hopped->tier, 0) << "tier 0 is dead; the hop must leave it";

  const auto& ev = r.request_events;
  const std::int64_t red =
      first_event(ev, hopped->id, RequestEventKind::kRedirect);
  ASSERT_GE(red, 0);
  const RequestEvent& hop = ev[static_cast<std::size_t>(red)];
  EXPECT_EQ(hop.detail, 0) << "detail records the ABANDONED tier";
  EXPECT_EQ(hop.tier, hopped->tier) << "event tier is the redirect target";
  // Fault order: the crash transition that killed the tier precedes the
  // hop, and the hop precedes the dispatch that finally served it.
  std::int64_t first_crash_health = -1;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind == RequestEventKind::kHealth &&
        ev[i].detail == static_cast<std::int64_t>(HealthReason::kCrash)) {
      first_crash_health = static_cast<std::int64_t>(i);
      break;
    }
  }
  ASSERT_GE(first_crash_health, 0);
  EXPECT_LT(first_crash_health, red);
  bool dispatched_after_hop = false;
  for (std::size_t i = static_cast<std::size_t>(red); i < ev.size(); ++i) {
    if (ev[i].request_id == hopped->id &&
        ev[i].kind == RequestEventKind::kDispatch) {
      EXPECT_EQ(ev[i].tier, hopped->tier);
      dispatched_after_hop = true;
      break;
    }
  }
  EXPECT_TRUE(dispatched_after_hop);
}

TEST(TraceCausality, EventCountsMatchConservationCounters) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.5, 80);
  const ServeResult r = run_once(trace, traced_config(tiers, &schedule));

  std::int64_t arrivals_n = 0, admits = 0, rejects = 0, completes = 0,
               fails = 0, expires = 0;
  for (const RequestEvent& e : r.request_events) {
    switch (e.kind) {
      case RequestEventKind::kArrival:  ++arrivals_n; break;
      case RequestEventKind::kAdmit:    ++admits; break;
      case RequestEventKind::kReject:   ++rejects; break;
      case RequestEventKind::kComplete: ++completes; break;
      case RequestEventKind::kFail:     ++fails; break;
      case RequestEventKind::kExpire:   ++expires; break;
      default: break;
    }
  }
  EXPECT_EQ(arrivals_n, r.stats.offered);
  EXPECT_EQ(admits, r.stats.admitted);
  EXPECT_EQ(rejects, r.stats.rejected_full + r.stats.rejected_expired +
                         r.stats.rejected_shutdown);
  EXPECT_EQ(completes, r.stats.served);
  EXPECT_EQ(fails, r.stats.failed);
  EXPECT_EQ(expires, r.stats.expired_in_queue);
  // Every admitted request leaves the event log exactly once.
  EXPECT_EQ(admits, completes + fails + expires);
}

// --- attribution --------------------------------------------------------

TEST(TraceAttribution, LedgerReconcilesWithStatsAndResponses) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.0, 60);
  const ServeResult r = run_once(trace, traced_config(tiers, &schedule));

  // pJ ledger vs uJ stats aggregate: same executions, same model.
  EXPECT_NEAR(r.stats.attributed_energy_pj, r.stats.total_energy_uj * 1e6,
              1e-6 * std::max(1.0, r.stats.total_energy_uj * 1e6));
  EXPECT_EQ(r.stats.attributed_energy_pj, r.ledger.total_energy_pj());
  EXPECT_EQ(r.stats.attributed_ops, r.ledger.total_ops());
  EXPECT_EQ(r.stats.wasted_energy_pj, r.ledger.wasted_energy_pj());
  // Faults make some executions discarded, so waste is strictly positive
  // and published < total.
  EXPECT_GT(r.ledger.wasted_energy_pj(), 0.0);
  EXPECT_LT(r.ledger.published_energy_pj(), r.ledger.total_energy_pj());

  for (const Response& resp : r.responses) {
    const obs::RequestAttribution attr = r.ledger.totals_for(resp.id);
    EXPECT_EQ(resp.ops, attr.ops) << "request " << resp.id;
    EXPECT_EQ(resp.energy_pj, attr.energy_pj) << "request " << resp.id;
    EXPECT_EQ(resp.wasted_energy_pj, attr.wasted_energy_pj())
        << "request " << resp.id;
    EXPECT_GT(resp.ops, 0) << "served requests cost real MACs";
    EXPECT_GT(resp.energy_pj, 0.0);
  }
}

TEST(TraceAttribution, SloSummaryIsConservedAndCoversServedTiers) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.0, 60);
  const ServeResult r = run_once(trace, traced_config(tiers, &schedule));
  const SloSummary slo = make_slo_summary(r, tiers);

  EXPECT_TRUE(slo.conserved);
  EXPECT_EQ(slo.served, r.stats.served);
  EXPECT_EQ(slo.admitted, slo.served + slo.expired_in_queue + slo.failed);
  std::int64_t tier_sum = 0;
  std::set<int> seen;
  for (const TierSlo& t : slo.tiers) {
    EXPECT_TRUE(seen.insert(t.tier).second) << "one block per tier";
    EXPECT_GT(t.served, 0) << "only tiers that served traffic appear";
    EXPECT_GE(t.in_deadline_fraction, 0.0);
    EXPECT_LE(t.in_deadline_fraction, 1.0);
    EXPECT_GE(t.p99_latency_ticks, t.p50_latency_ticks);
    EXPECT_GE(t.p50_latency_ticks, 0.0) << "served tiers have samples";
    EXPECT_GT(t.energy_per_request_pj, 0.0);
    tier_sum += t.served;
  }
  EXPECT_EQ(tier_sum, slo.served);

  // The JSON block carries the same numbers and the conserved flag.
  const json::Value v = slo_to_json(slo);
  EXPECT_TRUE(v.at("conserved").as_bool());
  EXPECT_EQ(v.at("served").as_int(), slo.served);
  EXPECT_EQ(v.at("tiers").size(), slo.tiers.size());
}

// --- exporters ----------------------------------------------------------

TEST(TraceExport, JsonlParsesAndChromeTraceHasOneTrackPerLane) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.0, 40);
  const ServeResult r = run_once(trace, traced_config(tiers, &schedule));

  const std::string jsonl_path = "trace_test_requests.jsonl";
  const std::string chrome_path = "trace_test_lanes.json";
  write_request_events_jsonl(jsonl_path, r.request_events);
  write_lane_chrome_trace(chrome_path, r.lane_executions, r.health_log,
                          r.request_events, r.lane_names);

  // Every JSONL line is one JSON object; seq is the line number.
  std::istringstream lines(read_file(jsonl_path));
  std::string line;
  std::int64_t n = 0;
  while (std::getline(lines, line)) {
    const json::Value v = json::parse(line, jsonl_path);
    EXPECT_EQ(v.at("seq").as_int(), n) << "seq is the causal line number";
    for (const char* key : {"tick", "request", "event", "tier", "lane",
                            "attempt", "detail"}) {
      EXPECT_TRUE(v.contains(key)) << key;
    }
    ++n;
  }
  EXPECT_EQ(n, static_cast<std::int64_t>(r.request_events.size()));

  // Chrome trace: one thread_name meta per lane + the frontend track,
  // and every execution span rides a known lane tid.
  const json::Value doc = json::parse(read_file(chrome_path), chrome_path);
  const json::Value& events = doc.at("traceEvents");
  std::set<std::int64_t> named_tids;
  std::int64_t spans = 0;
  for (const json::Value& e : events.items()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "thread_name") {
      EXPECT_TRUE(named_tids.insert(e.at("tid").as_int()).second);
    } else if (ph == "X") {
      ++spans;
      EXPECT_LT(e.at("tid").as_int(),
                static_cast<std::int64_t>(r.lane_names.size()));
      EXPECT_TRUE(e.at("args").contains("requests"));
    }
  }
  EXPECT_EQ(named_tids.size(), r.lane_names.size() + 1)
      << "one track per executor lane plus the frontend track";
  EXPECT_EQ(spans, static_cast<std::int64_t>(r.lane_executions.size()));

  std::remove(jsonl_path.c_str());
  std::remove(chrome_path.c_str());
}

// The lane view's exact bytes for a small chaos run: a hang, a corrupt
// result and a crash over eight arrivals. Virtual ticks make the
// document a pure function of the run, so any change to the exporter or
// the shared chrome-trace writer shows here byte for byte.
TEST(TraceExport, LaneTraceGoldenBytes) {
  const std::vector<TierSpec> tiers = chaos_tiers();
  const faults::LaneFaultSchedule schedule = mixed_schedule(tiers);
  const ArrivalTrace trace = chaos_trace(tiers, 2.0, 8);
  const ServeResult r = run_once(trace, traced_config(tiers, &schedule));
  const std::string got = lane_trace_to_json(r.lane_executions, r.health_log,
                                             r.request_events, r.lane_names)
                              .dump();
  const std::string want =
      R"J({"displayTimeUnit":"ms","traceEvents":[)J"
      R"J({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"lane 0 (float/r0)"}})J"
      R"J(,{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"lane 1 (float/r1)"}})J"
      R"J(,{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"lane 2 (fixed16/r0)"}})J"
      R"J(,{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"lane 3 (fixed16/r1)"}})J"
      R"J(,{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"lane 4 (fixed8/r0)"}})J"
      R"J(,{"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"lane 5 (fixed8/r1)"}})J"
      R"J(,{"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"frontend/admission"}})J"
      R"J(,{"name":"exec:doomed","cat":"serve","ph":"X","pid":1,"tid":0,"ts":4,"dur":625,"args":{"tier":0,"replica":0,"attempt":1,"batch_n":4,"energy_pj":138825.86956799999,"outcome":"doomed","requests":[0,1,2,3]}})J"
      R"J(,{"name":"exec:discarded_corrupt","cat":"serve","ph":"X","pid":1,"tid":1,"ts":14,"dur":19,"args":{"tier":0,"replica":1,"attempt":1,"batch_n":3,"energy_pj":104119.40217599999,"outcome":"discarded_corrupt","requests":[4,5,6]}})J"
      R"J(,{"name":"exec:published","cat":"serve","ph":"X","pid":1,"tid":1,"ts":33,"dur":19,"args":{"tier":0,"replica":1,"attempt":2,"batch_n":3,"energy_pj":104119.40217599999,"outcome":"published","requests":[4,5,6]}})J"
      R"J(,{"name":"exec:published","cat":"serve","ph":"X","pid":1,"tid":1,"ts":52,"dur":7,"args":{"tier":0,"replica":1,"attempt":1,"batch_n":1,"energy_pj":34706.467391999999,"outcome":"published","requests":[7]}})J"
      R"J(,{"name":"exec:published","cat":"serve","ph":"X","pid":1,"tid":1,"ts":104,"dur":25,"args":{"tier":0,"replica":1,"attempt":2,"batch_n":4,"energy_pj":138825.86956799999,"outcome":"published","requests":[0,1,2,3]}})J"
      R"J(,{"name":"health:dead (crash)","cat":"serve","ph":"i","s":"t","pid":1,"tid":2,"ts":24})J"
      R"J(,{"name":"health:quarantined (corrupt_detected)","cat":"serve","ph":"i","s":"t","pid":1,"tid":1,"ts":33})J"
      R"J(,{"name":"health:healthy (rescrubbed)","cat":"serve","ph":"i","s":"t","pid":1,"tid":1,"ts":33})J"
      R"J(,{"name":"health:suspect (hang_strike)","cat":"serve","ph":"i","s":"t","pid":1,"tid":0,"ts":104})J"
      R"J(,{"name":"batch_close:0","cat":"serve","ph":"i","s":"t","pid":1,"tid":6,"ts":4})J"
      R"J(,{"name":"batch_close:1","cat":"serve","ph":"i","s":"t","pid":1,"tid":6,"ts":4})J"
      R"J(,{"name":"batch_close:2","cat":"serve","ph":"i","s":"t","pid":1,"tid":6,"ts":4})J"
      R"J(,{"name":"batch_close:3","cat":"serve","ph":"i","s":"t","pid":1,"tid":6,"ts":4})J"
      R"J(,{"name":"batch_close:4","cat":"serve","ph":"i","s":"t","pid":1,"tid":6,"ts":14})J"
      R"J(,{"name":"batch_close:5","cat":"serve","ph":"i","s":"t","pid":1,"tid":6,"ts":14})J"
      R"J(,{"name":"batch_close:6","cat":"serve","ph":"i","s":"t","pid":1,"tid":6,"ts":14})J"
      R"J(,{"name":"batch_close:7","cat":"serve","ph":"i","s":"t","pid":1,"tid":6,"ts":23})J"
      R"J(]})J";
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace qnn::serve
