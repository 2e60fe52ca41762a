// RunReport: one structured JSON telemetry document per tool run
// (DESIGN.md §11). Benches and sweeps fold quantization-health signals
// into it — guard counters (saturation/NaN/Inf before clipping),
// envelope violations and layer retries, ABFT detect/re-execute counts,
// the native int path's kernel-tier plan, and the metrics-registry
// snapshot (thread-pool shard timings, GEMM
// call volume) — so a run's numerical hygiene is inspectable without
// scraping logs.
//
// Schema (qnn.run_report/1): a flat object with "schema", "tool",
// "threads", "simd_level" (the kernel level active when the report is
// made: scalar | avx2 | avx512) and "crc32_kernel" (the util/crc32 path:
// clmul | table), plus one member per added section. Section values are
// plain JSON built by the to_json() helpers below, so the document is
// stable and machine-diffable; doubles round-trip bit-exactly through
// util/json.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "protect/protected_network.h"
#include "quant/acc_bound.h"
#include "quant/guards.h"
#include "util/json.h"

namespace qnn::obs {

json::Value to_json(const quant::GuardCounters& g);
json::Value to_json(const protect::AbftCounters& a);
json::Value to_json(const protect::ProtectionCounters& p);
// The native int path's per-stage plan: one object per conv / inner
// product with layer, kind, word_bits, tier, acc_bits, fused_relu,
// fallback, epilogue and k_block (the "int_path" RunReport section).
json::Value to_json(const quant::IntPathPlan& plan);

class RunReport {
 public:
  explicit RunReport(std::string tool);

  // Inserts or replaces a top-level section.
  void set(const std::string& key, json::Value v);

  // Convenience wrappers around the to_json() helpers.
  void add_guards(const std::string& key, const quant::GuardCounters& g);
  void add_protection(const std::string& key,
                      const protect::ProtectionCounters& p);

  // Snapshot of `registry` under "metrics" (counters, gauges, and
  // histograms folded across thread stripes, sorted by name).
  void add_metrics(const Registry& registry = Registry::global());

  // Tracer bookkeeping under "trace": enabled flag, buffered and
  // dropped event totals, ring capacity, and the per-thread occupancy
  // breakdown behind them.
  void add_trace_summary();

  // Metrics-registry stripe occupancy under "registry": stripe count,
  // threads registered, stripes occupied, aliased threads.
  void add_registry_summary();

  const json::Value& root() const { return root_; }
  std::string dump() const { return root_.dump(); }

  // Atomic write (complete previous file or complete new file, never a
  // torn mixture).
  void write(const std::string& path) const;

 private:
  json::Value root_;
};

}  // namespace qnn::obs
