// Core request/response vocabulary of the inference serving layer
// (DESIGN.md §12).
//
// The serving layer runs in VIRTUAL TIME: every request carries an
// arrival tick and a deadline tick from a recorded trace, service
// durations come from a deterministic per-tier cost model, and the
// scheduler advances a virtual clock event by event. Wall-clock never
// enters any scheduling decision, which is what makes overload behavior
// itself replayable: the same trace produces the same batch
// composition, tier assignments, and output bytes at any worker-thread
// count (tests/serve_determinism_test.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace qnn::serve {

// Virtual-time instant/duration. The unit is abstract ("ticks"); the
// tier cost model and traces just have to agree on it. bench/
// serve_loadgen uses accelerator cycles.
using Tick = std::int64_t;

// Why a request was turned away at the admission boundary (or dropped
// before execution). Typed so producers can distinguish back-pressure
// (kQueueFull — retry later, maybe elsewhere) from a hopeless request
// (kDeadlineExpired) and a terminal condition (kShutdown).
enum class RejectReason {
  kNone = 0,
  kQueueFull,         // bounded queue at capacity (admission control)
  kDeadlineExpired,   // deadline already passed at enqueue time
  kShutdown,          // server draining; no new work accepted
};

inline const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:            return "none";
    case RejectReason::kQueueFull:       return "queue_full";
    case RejectReason::kDeadlineExpired: return "deadline_expired";
    case RejectReason::kShutdown:        return "shutdown";
  }
  return "?";
}

// Lifecycle edges of one request's causal event log (DESIGN.md §14).
// Every edge a request crosses on its way through
// queue -> batcher -> executor lanes -> completion is recorded with the
// virtual tick it happened at, so "where did this request spend its
// time and which tier actually ran it" is answerable after the fact.
enum class RequestEventKind {
  kArrival = 0,  // the event loop observed the trace arrival
  kTierAssign,   // admission assigned the entry precision tier
  kAdmit,        // bounded queue accepted the request
  kReject,       // queue turned it away (detail = RejectReason)
  kBatchClose,   // its batch closed (detail = batch size)
  kExpire,       // dropped pre-dispatch (detail: 0 = batcher, 1 = executor)
  kDispatch,     // batch started executing on a lane
  kHang,         // watchdog condemned its in-flight execution
  kCorrupt,      // completion audit discarded its tainted result
  kCrash,        // its lane crashed mid-execution
  kRetry,        // batch requeued (detail = earliest re-dispatch tick)
  kRedirect,     // moved across the precision lattice (detail = old tier)
  kRescrub,      // lane repair ran (lane-scoped; detail = 1 on success)
  kHealth,       // lane health transition (lane-scoped;
                 //   detail = HealthReason, detail2 = new LaneState)
  kComplete,     // response published
  kFail,         // terminal failure (retry budget / lane supply exhausted)
};

const char* request_event_name(RequestEventKind k);

class RequestTracer;

// Request-scoped causal trace handle, minted at admission and carried
// by the Request through every pipeline stage. A null tracer (tracing
// off) makes record() a no-op, so the handle costs one pointer when
// disabled and the pipeline code records unconditionally.
struct TraceContext {
  std::int64_t request_id = -1;
  RequestTracer* tracer = nullptr;

  // Appends one event to the run's causal log (request_trace.cc).
  void record(Tick tick, RequestEventKind kind, int tier = -1, int lane = -1,
              int attempt = 0, std::int64_t detail = -1) const;
};

// One inference request as it moves through queue -> batcher -> replica.
struct Request {
  std::int64_t id = 0;
  Tick arrival = 0;      // when the producer submitted it
  Tick deadline = 0;     // absolute tick; must complete strictly before
  int tier = 0;          // current precision tier (redirects update it)
  int admitted_tier = 0; // tier assigned at admission, before redirects
  int redirects = 0;     // cross-tier hops so far
  TraceContext trace;    // causal event log handle; inert when tracing off
  Tensor payload;        // one sample, shape (1, C, H, W)
};

// Completed request. `output` is the model's logits row for this
// request — the bytes the determinism contract pins. The attribution
// fields (tiers, stage breakdown, energy) ride along but are NOT part
// of ServeResult::digest(), which is why tracing/attribution cannot
// perturb the replay-identity contract.
struct Response {
  std::int64_t id = 0;
  int tier = 0;           // tier that actually served it (after redirects)
  int admitted_tier = 0;  // tier assigned at admission
  int replica = 0;        // lane within the tier that published the result
  int attempt = 1;        // dispatch attempt that published (1 = first try)
  int redirects = 0;      // cross-tier hops taken
  Tick arrival = 0;
  Tick batch_close = 0;  // when its batch closed (queue+batch wait ends)
  Tick dispatch = 0;     // when its publishing execution started
  Tick completion = 0;   // dispatch + modeled batch service time
  bool within_deadline = false;
  int predicted = 0;     // argmax of `output`
  // Attributed cost (obs::AttributionLedger): ops and energy charged to
  // this request across EVERY execution it rode, including discarded
  // ones; `wasted_energy_pj` is the never-published share.
  std::int64_t ops = 0;
  double energy_pj = 0.0;
  double wasted_energy_pj = 0.0;
  std::vector<float> output;

  Tick latency() const { return completion - arrival; }
  // Stage breakdown: queue+batch wait, execution.
  Tick queue_wait() const { return batch_close - arrival; }
  Tick execute_ticks() const { return completion - dispatch; }
};

// One executed batch, recorded for replay verification and reports.
struct BatchRecord {
  int tier = 0;
  int replica = 0;  // lane within the tier that published the result
  int attempt = 1;  // dispatch attempt that succeeded (1 = first try)
  Tick dispatch = 0;
  Tick completion = 0;
  std::vector<std::int64_t> request_ids;  // in batch-row order
};

}  // namespace qnn::serve
