#include "obs/report.h"

#include "obs/trace.h"
#include "tensor/microkernel.h"
#include "util/crc32.h"
#include "util/fileio.h"
#include "util/thread_pool.h"

namespace qnn::obs {

json::Value to_json(const quant::GuardCounters& g) {
  json::Value v = json::Value::object();
  v.set("values", g.values);
  v.set("saturated", g.saturated);
  v.set("nan", g.nan);
  v.set("inf", g.inf);
  v.set("saturation_rate", g.saturation_rate());
  return v;
}

json::Value to_json(const protect::AbftCounters& a) {
  json::Value v = json::Value::object();
  v.set("blocks_checked", a.blocks_checked);
  v.set("mismatches", a.mismatches);
  v.set("reexecutions", a.reexecutions);
  v.set("unrecovered", a.unrecovered);
  return v;
}

json::Value to_json(const protect::ProtectionCounters& p) {
  json::Value v = json::Value::object();
  v.set("values", p.values);
  v.set("out_of_envelope", p.out_of_envelope);
  v.set("clamped", p.clamped);
  v.set("layer_retries", p.layer_retries);
  v.set("degraded_forwards", p.degraded_forwards);
  v.set("abft", to_json(p.abft));
  return v;
}

json::Value to_json(const quant::IntPathPlan& plan) {
  json::Value stages = json::Value::array();
  for (const quant::IntStagePlan& s : plan.stages) {
    json::Value v = json::Value::object();
    v.set("layer", static_cast<std::int64_t>(s.layer));
    v.set("kind", s.kind);
    v.set("word_bits", s.word_bits);
    v.set("tier", quant::int_tier_name(s.tier));
    v.set("acc_bits", s.acc_bits);
    v.set("fused_relu", s.fused_relu);
    v.set("fallback", s.fallback);
    v.set("epilogue", quant::int_epilogue_name(s.epilogue));
    v.set("k_block", s.k_block);
    stages.push_back(std::move(v));
  }
  return stages;
}

RunReport::RunReport(std::string tool) : root_(json::Value::object()) {
  root_.set("schema", "qnn.run_report/1");
  root_.set("tool", std::move(tool));
  root_.set("threads", ThreadPool::env_threads());
  root_.set("simd_level", simd_level_name(active_simd_level()));
  root_.set("crc32_kernel", crc32_kernel());
}

void RunReport::set(const std::string& key, json::Value v) {
  root_.set(key, std::move(v));
}

void RunReport::add_guards(const std::string& key,
                           const quant::GuardCounters& g) {
  root_.set(key, to_json(g));
}

void RunReport::add_protection(const std::string& key,
                               const protect::ProtectionCounters& p) {
  root_.set(key, to_json(p));
}

void RunReport::add_metrics(const Registry& registry) {
  root_.set("metrics", registry.snapshot().to_json());
}

void RunReport::add_trace_summary() {
  json::Value v = json::Value::object();
  v.set("enabled", trace_enabled());
  v.set("events", trace_event_count());
  v.set("dropped", trace_dropped_count());
  v.set("capacity", static_cast<std::int64_t>(trace_buffer_capacity()));
  json::Value per_thread = json::Value::array();
  for (const TraceBufferStats& s : trace_buffer_stats()) {
    json::Value t = json::Value::object();
    t.set("tid", static_cast<std::int64_t>(s.tid));
    t.set("buffered", s.buffered);
    t.set("dropped", s.dropped);
    t.set("capacity", s.capacity);
    per_thread.push_back(std::move(t));
  }
  v.set("per_thread", std::move(per_thread));
  root_.set("trace", std::move(v));
}

void RunReport::add_registry_summary() {
  const StripeStats s = stripe_stats();
  json::Value v = json::Value::object();
  v.set("stripes", static_cast<std::int64_t>(s.stripes));
  v.set("threads_registered", static_cast<std::int64_t>(s.threads_registered));
  v.set("stripes_occupied", static_cast<std::int64_t>(s.stripes_occupied));
  v.set("aliased_threads", static_cast<std::int64_t>(s.aliased_threads));
  root_.set("registry", std::move(v));
}

void RunReport::write(const std::string& path) const {
  write_file_atomic(path, dump() + "\n");
}

}  // namespace qnn::obs
