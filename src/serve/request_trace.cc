#include "serve/request_trace.h"

#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/fileio.h"

namespace qnn::serve {

const char* request_event_name(RequestEventKind k) {
  switch (k) {
    case RequestEventKind::kArrival:    return "arrival";
    case RequestEventKind::kTierAssign: return "tier_assign";
    case RequestEventKind::kAdmit:      return "admit";
    case RequestEventKind::kReject:     return "reject";
    case RequestEventKind::kBatchClose: return "batch_close";
    case RequestEventKind::kExpire:     return "expire";
    case RequestEventKind::kDispatch:   return "dispatch";
    case RequestEventKind::kHang:       return "hang";
    case RequestEventKind::kCorrupt:    return "corrupt";
    case RequestEventKind::kCrash:      return "crash";
    case RequestEventKind::kRetry:      return "retry";
    case RequestEventKind::kRedirect:   return "redirect";
    case RequestEventKind::kRescrub:    return "rescrub";
    case RequestEventKind::kHealth:     return "health";
    case RequestEventKind::kComplete:   return "complete";
    case RequestEventKind::kFail:       return "fail";
  }
  return "?";
}

const char* lane_outcome_name(LaneExecution::Outcome o) {
  switch (o) {
    case LaneExecution::Outcome::kPublished:        return "published";
    case LaneExecution::Outcome::kDoomed:           return "doomed";
    case LaneExecution::Outcome::kDiscardedCorrupt: return "discarded_corrupt";
    case LaneExecution::Outcome::kCrashed:          return "crashed";
  }
  return "?";
}

void TraceContext::record(Tick tick, RequestEventKind kind, int tier,
                          int lane, int attempt, std::int64_t detail) const {
  if (tracer == nullptr) return;
  tracer->record(tick, request_id, kind, tier, lane, attempt, detail);
}

void RequestTracer::record(Tick tick, std::int64_t request_id,
                           RequestEventKind kind, int tier, int lane,
                           int attempt, std::int64_t detail,
                           std::int64_t detail2) {
  if (!enabled_) return;
  events_.push_back(RequestEvent{tick, request_id, kind, tier, lane, attempt,
                                 detail, detail2});
}

std::size_t RequestTracer::begin_execution(LaneExecution e) {
  if (!enabled_) return kNoExecution;
  executions_.push_back(std::move(e));
  return executions_.size() - 1;
}

void RequestTracer::finish_execution(std::size_t index, Tick completion,
                                     LaneExecution::Outcome outcome) {
  if (!enabled_ || index == kNoExecution) return;
  QNN_CHECK_MSG(index < executions_.size(),
                "finish_execution on unknown record " << index);
  executions_[index].completion = completion;
  executions_[index].outcome = outcome;
}

json::Value request_event_to_json(const RequestEvent& e, std::int64_t seq) {
  json::Value v = json::Value::object();
  v.set("seq", seq);
  v.set("tick", e.tick);
  v.set("request", e.request_id);
  v.set("event", request_event_name(e.kind));
  v.set("tier", static_cast<std::int64_t>(e.tier));
  v.set("lane", static_cast<std::int64_t>(e.lane));
  v.set("attempt", static_cast<std::int64_t>(e.attempt));
  v.set("detail", e.detail);
  // Kind-specific decodes so the JSONL is readable without the enum
  // tables at hand.
  if (e.kind == RequestEventKind::kReject && e.detail >= 0) {
    v.set("reason", reject_reason_name(static_cast<RejectReason>(e.detail)));
  }
  if (e.kind == RequestEventKind::kHealth) {
    if (e.detail >= 0) {
      v.set("reason",
            health_reason_name(static_cast<HealthReason>(e.detail)));
    }
    if (e.detail2 >= 0) {
      v.set("state", lane_state_name(static_cast<LaneState>(e.detail2)));
    }
  }
  return v;
}

std::string request_events_to_jsonl(const std::vector<RequestEvent>& events) {
  std::string out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += request_event_to_json(events[i], static_cast<std::int64_t>(i))
               .dump();
    out += '\n';
  }
  return out;
}

void write_request_events_jsonl(const std::string& path,
                                const std::vector<RequestEvent>& events) {
  write_file_atomic(path, request_events_to_jsonl(events));
}

json::Value lane_trace_to_json(const std::vector<LaneExecution>& executions,
                               const std::vector<HealthTransition>& health_log,
                               const std::vector<RequestEvent>& events,
                               const std::vector<std::string>& lane_names) {
  obs::ChromeTrace doc;
  const int frontend_tid = static_cast<int>(lane_names.size());
  for (std::size_t i = 0; i < lane_names.size(); ++i)
    doc.track(static_cast<int>(i),
              "lane " + std::to_string(i) + " (" + lane_names[i] + ")");
  doc.track(frontend_tid, "frontend/admission");

  // One complete span per execution, named by its outcome, with the
  // batch composition and attributed energy in args. Virtual ticks map
  // onto the trace's microsecond axis 1:1.
  for (const LaneExecution& ex : executions) {
    json::Value args = json::Value::object();
    args.set("tier", static_cast<std::int64_t>(ex.tier));
    args.set("replica", static_cast<std::int64_t>(ex.replica));
    args.set("attempt", static_cast<std::int64_t>(ex.attempt));
    args.set("batch_n", ex.batch_n);
    args.set("energy_pj", ex.energy_pj);
    args.set("outcome", lane_outcome_name(ex.outcome));
    json::Value ids = json::Value::array();
    for (const std::int64_t id : ex.request_ids) ids.push_back(id);
    args.set("requests", std::move(ids));
    doc.span(ex.lane, std::string("exec:") + lane_outcome_name(ex.outcome),
             "serve", ex.dispatch, ex.completion - ex.dispatch,
             std::move(args));
  }

  // Health transitions as instants on the lane that took them.
  for (const HealthTransition& t : health_log)
    doc.instant(t.lane,
                std::string("health:") + lane_state_name(t.to) + " (" +
                    health_reason_name(t.reason) + ")",
                "serve", t.tick);

  // Admission-boundary outcomes on the frontend track: the events that
  // end a request anywhere other than a published execution, plus batch
  // closes so queue pressure is visible on the timeline.
  for (const RequestEvent& e : events) {
    const bool frontend = e.kind == RequestEventKind::kReject ||
                          e.kind == RequestEventKind::kExpire ||
                          e.kind == RequestEventKind::kFail ||
                          e.kind == RequestEventKind::kBatchClose;
    if (!frontend) continue;
    doc.instant(frontend_tid,
                std::string(request_event_name(e.kind)) + ":" +
                    std::to_string(e.request_id),
                "serve", e.tick);
  }
  return std::move(doc).to_json();
}

void write_lane_chrome_trace(const std::string& path,
                             const std::vector<LaneExecution>& executions,
                             const std::vector<HealthTransition>& health_log,
                             const std::vector<RequestEvent>& events,
                             const std::vector<std::string>& lane_names) {
  obs::write_chrome_trace(
      path, lane_trace_to_json(executions, health_log, events, lane_names));
}

}  // namespace qnn::serve
