// Scoped tracer: begin/end spans recorded into per-thread ring buffers
// and exported as chrome://tracing / Perfetto JSON (DESIGN.md §11).
//
// Tracing is off by default. QNN_TRACE=on|1 (util/env's switch) or
// set_trace_enabled(true) turns it on. When off, a span costs one
// relaxed atomic load and a branch — cheap enough to leave QNN_SPAN in
// every hot path. When on, each span performs two steady_clock reads
// and one store into the calling thread's ring buffer; no locks, no
// allocation, and nothing that feeds back into any computation, so
// traced runs remain bit-identical to untraced runs at every thread
// count (§9).
//
// Span names and categories must be string literals (or pointers that
// outlive the export) — events store the pointers, not copies.
//
// Export is meant for quiesce points (end of a bench, after a test's
// parallel work has joined): the exporter reads each thread's buffer up
// to its published head. Buffers hold the most recent
// trace_buffer_capacity() events per thread; older events are dropped
// oldest-first and counted in trace_dropped_count().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace qnn::obs {

namespace detail {
extern std::atomic<int> g_trace_state;  // -1 unresolved, 0 off, 1 on
bool resolve_trace_env();
void record_span(const char* name, const char* cat, std::int64_t arg,
                 double ts_us, double dur_us);
double now_us();
}  // namespace detail

// True when spans are being recorded. First call resolves QNN_TRACE.
inline bool trace_enabled() {
  const int s = detail::g_trace_state.load(std::memory_order_relaxed);
  if (s >= 0) return s != 0;
  return detail::resolve_trace_env();
}

void set_trace_enabled(bool enabled);

// Ring capacity (events per thread) for buffers created after this
// call; existing buffers keep their size. Intended for tests.
void set_trace_buffer_capacity(std::size_t events);
std::size_t trace_buffer_capacity();

// Buffered events across all threads / events evicted by ring wrap.
std::int64_t trace_event_count();
std::int64_t trace_dropped_count();

// Per-thread ring occupancy: events currently buffered, events evicted
// by wrap, and the ring's capacity — the breakdown behind
// trace_event_count()/trace_dropped_count(), exported into RunReport so
// a drop total is traceable to the thread that overflowed.
struct TraceBufferStats {
  int tid = 0;
  std::int64_t buffered = 0;
  std::int64_t dropped = 0;
  std::int64_t capacity = 0;
};

std::vector<TraceBufferStats> trace_buffer_stats();

// Drops all buffered events (buffers and thread ids are kept). Callers
// must ensure no spans are concurrently completing.
void clear_trace();

// One chrome://tracing / Perfetto document:
// {"displayTimeUnit":"ms","traceEvents":[...]} holding a thread_name
// metadata event per named track, then the complete ("X") spans and
// thread-scoped instants ("i") in the order added, all under pid 1.
// The span tracer and serve's lane view (serve/request_trace) both
// build their documents here. `ts`/`dur` are numbers on the trace's
// microsecond axis, kept as given (double or integer).
class ChromeTrace {
 public:
  void track(int tid, std::string name);
  // A null `args` leaves the key out.
  void span(int tid, std::string name, const char* cat, json::Value ts,
            json::Value dur, json::Value args = json::Value());
  void instant(int tid, std::string name, const char* cat, json::Value ts);
  json::Value to_json() &&;

 private:
  std::vector<json::Value> tracks_;
  std::vector<json::Value> events_;
};

// The span tracer's document: one track per recording thread and one
// span per buffered event. Load in chrome://tracing or
// https://ui.perfetto.dev.
json::Value trace_to_json();
// Writes `doc` (default: trace_to_json()) atomically, newline-ended.
void write_chrome_trace(const std::string& path);
void write_chrome_trace(const std::string& path, const json::Value& doc);

// RAII span: records [construction, destruction) on the calling thread.
// `arg` >= 0 is exported as args.n (layer index, trial number, element
// count, ...); negative means "no argument".
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, std::int64_t arg = -1)
      : name_(name), cat_(cat), arg_(arg), active_(trace_enabled()) {
    if (active_) start_us_ = detail::now_us();
  }
  ~TraceSpan() {
    if (active_)
      detail::record_span(name_, cat_, arg_, start_us_,
                          detail::now_us() - start_us_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::int64_t arg_;
  double start_us_ = 0.0;
  bool active_;
};

}  // namespace qnn::obs

#define QNN_SPAN_PASTE2(a, b) a##b
#define QNN_SPAN_PASTE(a, b) QNN_SPAN_PASTE2(a, b)
// Scoped span covering the rest of the enclosing block.
#define QNN_SPAN(name, cat) \
  ::qnn::obs::TraceSpan QNN_SPAN_PASTE(qnn_span_, __COUNTER__)(name, cat)
#define QNN_SPAN_N(name, cat, arg) \
  ::qnn::obs::TraceSpan QNN_SPAN_PASTE(qnn_span_, __COUNTER__)(name, cat, \
                                                               arg)
