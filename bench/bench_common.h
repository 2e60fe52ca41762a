// Shared helpers for the table/figure reproduction binaries.
//
// Every binary runs standalone and prints the paper-formatted table
// plus a paper-vs-measured comparison where the paper published
// numbers. Command-line flags (handled by bench::Session):
//   --trace <path>   write a chrome://tracing / Perfetto JSON profile
//   --report <path>  write a qnn.run_report/1 telemetry JSON document
// Environment knobs (util/env; README.md lists every spelling):
//   QNN_BENCH_FAST=on  shrink training budgets ~4x (CI smoke)
//   QNN_BENCH_SCALE=f  multiply train-set sizes by f > 0 (default 1)
//   QNN_TRACE=on       enable span recording without writing a file
#pragma once

#include <iostream>
#include <string>

#include "exp/sweep.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/table.h"

namespace qnn::bench {

// Per-binary observability harness. Construct first thing in main():
// strips --trace/--report from argv (so later argv consumers — e.g.
// benchmark::Initialize — never see them), enables span recording when
// a trace was requested, and on destruction writes the trace and the
// RunReport (metrics snapshot + trace summary + any sections the bench
// added via report()).
class Session {
 public:
  Session(std::string tool, int* argc, char** argv)
      : report_(std::move(tool)) {
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const std::string arg = argv[i];
      std::string* dst = nullptr;
      if (arg == "--trace") {
        dst = &trace_path_;
      } else if (arg == "--report") {
        dst = &report_path_;
      }
      if (dst == nullptr) {
        argv[out++] = argv[i];
        continue;
      }
      if (i + 1 >= *argc) {
        std::cerr << arg << " requires a path argument (ignored)\n";
        continue;
      }
      *dst = argv[++i];
    }
    *argc = out;
    if (!trace_path_.empty()) obs::set_trace_enabled(true);
  }

  ~Session() {
    if (!trace_path_.empty()) {
      obs::write_chrome_trace(trace_path_);
      std::cout << "wrote trace to " << trace_path_
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!report_path_.empty()) {
      report_.add_metrics();
      report_.add_trace_summary();
      report_.add_registry_summary();
      report_.write(report_path_);
      std::cout << "wrote run report to " << report_path_ << "\n";
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Benches may fold extra sections (guard counters, phase timings, ...)
  // into the report before it is written.
  obs::RunReport& report() { return report_; }
  const std::string& trace_path() const { return trace_path_; }
  const std::string& report_path() const { return report_path_; }

 private:
  obs::RunReport report_;
  std::string trace_path_;
  std::string report_path_;
};

inline bool fast_mode() { return env::read_switch("QNN_BENCH_FAST", false); }

inline double bench_scale() {
  return env::read_env("QNN_BENCH_SCALE", "a number > 0", 1.0, "1",
                       env::parse_positive);
}

// Per-image energy of the FULL-SIZE (channel_scale = 1) architecture at
// each precision. Accuracy experiments run on channel-scaled networks to
// fit the single-core budget, but the energy/area/power columns are
// training-independent, so they are always reported for the paper's
// actual architectures.
struct FullScaleHw {
  double energy_uj = 0;
  double area_mm2 = 0;
  double power_mw = 0;
  std::int64_t cycles = 0;
};

inline FullScaleHw full_scale_hw(const std::string& network,
                                 const quant::PrecisionConfig& precision) {
  auto net = nn::make_network(network, {});
  const Shape in = nn::input_shape_for(network);
  hw::AcceleratorConfig cfg;
  cfg.precision = precision;
  const hw::Accelerator acc(cfg);
  const auto sched = hw::schedule_network(net->describe(in), acc);
  return {sched.energy_uj(acc), acc.area_mm2(), acc.power_mw(),
          sched.total_cycles};
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

}  // namespace qnn::bench
