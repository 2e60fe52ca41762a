// Deterministic virtual-time inference server (DESIGN.md §12–§13).
//
// The server replays a recorded ArrivalTrace through the full serving
// pipeline — admission (BoundedQueue), deadline-aware batching
// (DynamicBatcher), precision-downshift overload control
// (OverloadController), and per-lane executors over frozen replicas
// (ExecutorGroup / ReplicaPool) — entirely in virtual time. Service
// durations come from each tier's modeled cost (accelerator schedule
// cycles scaled by operand bits), never from wall clock, and the event
// loop itself is serial; the only real parallelism is INSIDE each
// forward pass, which the deterministic thread pool already guarantees
// is bit-identical at any thread count (§9). Consequence: batch
// composition, tier assignments, rejections, lane health transitions,
// and output bytes replay identically at 1, 4, or 8 worker threads —
// overload AND failure behavior are testable functions of the trace.
//
// Fault tolerance (§13): each (tier, replica) pair is an executor lane
// with its own health state machine. An optional chaos schedule injects
// lane faults (hang / corrupt / crash) at fixed virtual ticks; the
// watchdog, CRC audit, rescrub, and retry-with-redirect machinery keep
// the conservation invariant — every admitted request is served,
// expired, or failed exactly once, and no result is published twice.
//
// The p99 feedback signal closes the loop THROUGH the obs registry: the
// server observes per-request latency into a histogram and the
// controller reads it back via Snapshot::quantile, as a delta against a
// baseline snapshot. With `p99_window_ticks > 0` the baseline slides:
// the delta covers only the most recent window, so a latency spike ages
// out of the signal once the pipeline has been quiet (recovery is
// possible after an overload burst ends). Bucket counts are exact
// integers, so even this feedback path is thread-count-independent.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "faults/lane_faults.h"
#include "obs/ledger.h"
#include "serve/arrivals.h"
#include "serve/batcher.h"
#include "serve/controller.h"
#include "serve/executors.h"
#include "serve/health.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "serve/request_trace.h"
#include "serve/tiers.h"
#include "util/json.h"

namespace qnn::serve {

// What admission does when pressure rises.
enum class AdmissionPolicy {
  kDegrade,      // downshift tiers first, reject only when full
  kRejectOnly,   // full precision always; full queue rejects
  kNoAdmission,  // unbounded queue, full precision (baseline)
};
const char* admission_policy_name(AdmissionPolicy p);

// Synthesizes a request's input tensor; defaults to default_payload.
using PayloadProvider =
    std::function<Tensor(const TraceRequest&, const Shape& sample_shape)>;

struct ServerConfig {
  std::size_t queue_capacity = 64;
  BatcherConfig batcher;
  ControllerConfig controller;
  AdmissionPolicy policy = AdmissionPolicy::kDegrade;
  // Executor lanes: watchdog budget, retry/redirect policy (§13).
  ExecutorConfig executor;
  // Replica health lattice: strike/quarantine/rescrub budgets (§13).
  HealthConfig health;
  // Optional deterministic fault schedule; must outlive run_trace.
  // nullptr = no injected faults.
  const faults::LaneFaultSchedule* chaos = nullptr;
  // Sliding window for the controller's p99 signal; 0 = whole-run delta
  // (a past spike then suppresses upshift forever).
  Tick p99_window_ticks = 0;
  // Virtual tick at which the queue closes (admission stops, in-flight
  // work drains); -1 = never, the trace runs to completion.
  Tick shutdown_tick = -1;
  // Record the per-request causal event log + per-lane execution trace
  // (DESIGN.md §14). Off by default; the attribution ledger always runs
  // (it fills Response energy fields), and neither feeds back into
  // scheduling, so on == off leaves the replay digest bit-identical.
  bool trace_requests = false;
  PayloadProvider payload;  // null -> default_payload
};

struct ServeStats {
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected_full = 0;
  std::int64_t rejected_expired = 0;
  std::int64_t rejected_shutdown = 0;
  std::int64_t expired_in_queue = 0;  // admitted but dropped pre-dispatch
  std::int64_t served = 0;
  std::int64_t served_within_deadline = 0;
  std::int64_t served_late = 0;
  // Admitted requests terminally dropped by the executor layer: retry
  // budget exhausted or no lane left that could ever run them.
  std::int64_t failed = 0;
  std::vector<std::int64_t> served_per_tier;
  std::int64_t downshifts = 0;
  std::int64_t upshifts = 0;
  // Fault-tolerance counters (§13). All zero in a fault-free run.
  std::int64_t hung_batches = 0;     // watchdog firings
  std::int64_t corrupt_batches = 0;  // completion-audit failures
  std::int64_t crashed_batches = 0;  // in-flight batches lost to crashes
  std::int64_t retries = 0;          // batch re-dispatches queued
  std::int64_t redirected = 0;       // requests moved across tiers
  std::int64_t rescrubs = 0;         // replica repairs performed
  std::int64_t discarded_results = 0;  // executions never published
  Tick end_tick = 0;
  double total_energy_uj = 0.0;
  double p50_latency_ticks = 0.0;
  double p99_latency_ticks = 0.0;
  // Attribution ledger roll-up (§14). attributed_energy_pj reconciles
  // with total_energy_uj * 1e6 (QNN_CHECKed); the wasted share is what
  // discarded executions burned.
  std::int64_t attributed_ops = 0;
  double attributed_energy_pj = 0.0;
  double wasted_energy_pj = 0.0;
};

struct ServeResult {
  std::vector<Response> responses;  // completion order
  std::vector<BatchRecord> batches;
  // Every lane health transition, in virtual-time order — part of the
  // replay identity.
  std::vector<HealthTransition> health_log;
  ServeStats stats;
  // Request-scoped tracing artifacts (§14). Empty unless
  // ServerConfig::trace_requests; NOT part of digest().
  std::vector<RequestEvent> request_events;    // causal order
  std::vector<LaneExecution> lane_executions;  // dispatch order
  std::vector<std::string> lane_names;         // "tier/rN", lane order
  // Per-request energy attribution; always populated.
  obs::AttributionLedger ledger;

  // Order-sensitive CRC over every response's (id, tier, completion,
  // output bytes) and every health transition — the replay-identity
  // fingerprint compared across thread counts by the determinism suite.
  std::uint32_t digest() const;
};

json::Value serve_stats_to_json(const ServeStats& stats);

class Server {
 public:
  // The pool outlives the server; tier 0 must be the most accurate.
  Server(ReplicaPool& pool, ServerConfig config);

  // Replays `trace` to completion (or through shutdown drain) and
  // returns every response plus aggregate statistics. Deterministic:
  // same trace + config + pool => identical result bytes. Conservation
  // is checked on exit: admitted == served + expired_in_queue + failed.
  ServeResult run_trace(const ArrivalTrace& trace);

 private:
  ReplicaPool& pool_;
  ServerConfig config_;
};

}  // namespace qnn::serve
