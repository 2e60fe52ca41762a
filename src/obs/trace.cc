#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/env.h"
#include "util/fileio.h"

namespace qnn::obs {
namespace detail {

std::atomic<int> g_trace_state{-1};

double now_us() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool resolve_trace_env() {
  const int enabled = env::read_switch("QNN_TRACE", false) ? 1 : 0;
  int expected = -1;
  g_trace_state.compare_exchange_strong(expected, enabled,
                                        std::memory_order_relaxed);
  return g_trace_state.load(std::memory_order_relaxed) != 0;
}

struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::int64_t arg = -1;
};

// One ring per thread: written only by the owning thread, read by the
// exporter at quiesce points. `head` counts events ever written; the
// release store publishes the slot write to an acquire-loading reader.
struct ThreadBuffer {
  int tid = 0;
  std::vector<TraceEvent> ring;
  std::atomic<std::uint64_t> head{0};
};

std::mutex g_buffers_m;
// Buffer pointers are leaked deliberately: pool worker threads (and
// their thread_locals) can outlive any scope that could free them, and
// the exporter may run after a recording thread has exited.
std::vector<ThreadBuffer*>& buffer_list() {
  static std::vector<ThreadBuffer*>* list = new std::vector<ThreadBuffer*>();
  return *list;
}
std::size_t g_capacity = std::size_t{1} << 16;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto* b = new ThreadBuffer();
    std::lock_guard<std::mutex> lock(g_buffers_m);
    b->tid = static_cast<int>(buffer_list().size());
    b->ring.resize(g_capacity);
    buffer_list().push_back(b);
    return b;
  }();
  return *buf;
}

void record_span(const char* name, const char* cat, std::int64_t arg,
                 double ts_us, double dur_us) {
  ThreadBuffer& b = local_buffer();
  const std::uint64_t h = b.head.load(std::memory_order_relaxed);
  TraceEvent& ev = b.ring[h % b.ring.size()];
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.arg = arg;
  b.head.store(h + 1, std::memory_order_release);
}

}  // namespace detail

void set_trace_enabled(bool enabled) {
  detail::g_trace_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void set_trace_buffer_capacity(std::size_t events) {
  std::lock_guard<std::mutex> lock(detail::g_buffers_m);
  detail::g_capacity = events > 0 ? events : 1;
}

std::size_t trace_buffer_capacity() {
  std::lock_guard<std::mutex> lock(detail::g_buffers_m);
  return detail::g_capacity;
}

std::int64_t trace_event_count() {
  std::lock_guard<std::mutex> lock(detail::g_buffers_m);
  std::int64_t total = 0;
  for (const detail::ThreadBuffer* b : detail::buffer_list()) {
    const std::uint64_t head = b->head.load(std::memory_order_acquire);
    total += static_cast<std::int64_t>(
        std::min<std::uint64_t>(head, b->ring.size()));
  }
  return total;
}

std::int64_t trace_dropped_count() {
  std::lock_guard<std::mutex> lock(detail::g_buffers_m);
  std::int64_t dropped = 0;
  for (const detail::ThreadBuffer* b : detail::buffer_list()) {
    const std::uint64_t head = b->head.load(std::memory_order_acquire);
    if (head > b->ring.size())
      dropped += static_cast<std::int64_t>(head - b->ring.size());
  }
  return dropped;
}

std::vector<TraceBufferStats> trace_buffer_stats() {
  std::lock_guard<std::mutex> lock(detail::g_buffers_m);
  std::vector<TraceBufferStats> out;
  for (const detail::ThreadBuffer* b : detail::buffer_list()) {
    TraceBufferStats s;
    s.tid = b->tid;
    const std::uint64_t head = b->head.load(std::memory_order_acquire);
    const std::uint64_t cap = b->ring.size();
    s.capacity = static_cast<std::int64_t>(cap);
    s.buffered =
        static_cast<std::int64_t>(std::min<std::uint64_t>(head, cap));
    s.dropped = head > cap ? static_cast<std::int64_t>(head - cap) : 0;
    out.push_back(s);
  }
  return out;
}

void clear_trace() {
  std::lock_guard<std::mutex> lock(detail::g_buffers_m);
  for (detail::ThreadBuffer* b : detail::buffer_list())
    b->head.store(0, std::memory_order_release);
}

void ChromeTrace::track(int tid, std::string name) {
  json::Value meta = json::Value::object();
  meta.set("name", "thread_name");
  meta.set("ph", "M");
  meta.set("pid", 1);
  meta.set("tid", tid);
  json::Value args = json::Value::object();
  args.set("name", std::move(name));
  meta.set("args", std::move(args));
  tracks_.push_back(std::move(meta));
}

void ChromeTrace::span(int tid, std::string name, const char* cat,
                       json::Value ts, json::Value dur, json::Value args) {
  json::Value e = json::Value::object();
  e.set("name", std::move(name));
  e.set("cat", cat);
  e.set("ph", "X");
  e.set("pid", 1);
  e.set("tid", tid);
  e.set("ts", std::move(ts));
  e.set("dur", std::move(dur));
  if (!args.is_null()) e.set("args", std::move(args));
  events_.push_back(std::move(e));
}

void ChromeTrace::instant(int tid, std::string name, const char* cat,
                          json::Value ts) {
  json::Value e = json::Value::object();
  e.set("name", std::move(name));
  e.set("cat", cat);
  e.set("ph", "i");
  e.set("s", "t");  // thread-scoped instant
  e.set("pid", 1);
  e.set("tid", tid);
  e.set("ts", std::move(ts));
  events_.push_back(std::move(e));
}

json::Value ChromeTrace::to_json() && {
  json::Value events = json::Value::array();
  for (json::Value& e : tracks_) events.push_back(std::move(e));
  for (json::Value& e : events_) events.push_back(std::move(e));
  json::Value root = json::Value::object();
  root.set("displayTimeUnit", "ms");
  root.set("traceEvents", std::move(events));
  return root;
}

json::Value trace_to_json() {
  std::lock_guard<std::mutex> lock(detail::g_buffers_m);
  ChromeTrace doc;
  for (const detail::ThreadBuffer* b : detail::buffer_list())
    doc.track(b->tid, b->tid == 0 ? std::string("main/first-tracer")
                                  : "thread-" + std::to_string(b->tid));
  for (const detail::ThreadBuffer* b : detail::buffer_list()) {
    const std::uint64_t head = b->head.load(std::memory_order_acquire);
    const std::uint64_t cap = b->ring.size();
    const std::uint64_t count = std::min<std::uint64_t>(head, cap);
    // Oldest first: a wrapped ring starts at head % cap.
    const std::uint64_t first = head > cap ? head % cap : 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const detail::TraceEvent& ev = b->ring[(first + i) % cap];
      json::Value args;
      if (ev.arg >= 0) {
        args = json::Value::object();
        args.set("n", ev.arg);
      }
      doc.span(b->tid, ev.name, ev.cat, ev.ts_us, ev.dur_us, std::move(args));
    }
  }
  return std::move(doc).to_json();
}

void write_chrome_trace(const std::string& path) {
  write_chrome_trace(path, trace_to_json());
}

void write_chrome_trace(const std::string& path, const json::Value& doc) {
  write_file_atomic(path, doc.dump() + "\n");
}

}  // namespace qnn::obs
