// The serving fixture the chaos and request-trace suites share: a tiny
// two-layer net, its tier lattice, open-loop arrivals, the server
// config, a fresh-pool run, and the mixed lane-fault schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/lane_faults.h"
#include "nn/activation.h"
#include "nn/inner_product.h"
#include "nn/network.h"
#include "serve/arrivals.h"
#include "serve/server.h"
#include "serve/tiers.h"
#include "util/rng.h"

namespace qnn::serve {

inline std::unique_ptr<nn::Network> chaos_net() {
  auto net = std::make_unique<nn::Network>("serve_chaos");
  net->add<nn::InnerProduct>(6, 12);
  net->add<nn::Relu>();
  net->add<nn::InnerProduct>(12, 3);
  Rng rng(17);
  net->init_weights(rng);
  return net;
}

inline std::vector<TierSpec> chaos_tiers() {
  auto net = chaos_net();
  std::vector<TierSpec> tiers = default_tier_lattice();
  derive_tier_costs(*net, Shape{1, 6}, &tiers);
  return tiers;
}

inline ArrivalTrace chaos_trace(const std::vector<TierSpec>& tiers,
                                double rate, std::int64_t n,
                                Tick deadline_mult = 20) {
  OpenLoopSpec spec;
  spec.num_requests = n;
  spec.mean_interarrival_ticks =
      static_cast<double>(tiers[0].ticks_per_image) / rate;
  spec.relative_deadline_ticks = deadline_mult * tiers[0].ticks_per_image;
  spec.seed = 42;
  return make_open_loop_trace(spec, {6});
}

inline ServerConfig chaos_config(const std::vector<TierSpec>& tiers,
                                 const faults::LaneFaultSchedule* chaos,
                                 bool trace_requests = false) {
  ServerConfig cfg;
  cfg.queue_capacity = 16;
  cfg.batcher.max_batch = 4;
  cfg.batcher.batch_window = tiers[0].ticks_per_image;
  cfg.controller.high_depth_fraction = 0.5;
  cfg.controller.low_depth_fraction = 0.125;
  cfg.controller.dwell_ticks = 2 * tiers[0].ticks_per_image;
  cfg.chaos = chaos;
  cfg.trace_requests = trace_requests;
  return cfg;
}

// Fresh pool + server per run so no replica state leaks between runs.
inline ServeResult run_once(const ArrivalTrace& trace,
                            const ServerConfig& cfg,
                            int replicas_per_tier = 2) {
  auto net = chaos_net();
  std::vector<TierSpec> tiers = chaos_tiers();
  Tensor calib(Shape{16, 6});
  Rng rng(9);
  calib.fill_uniform(rng, 0, 1);
  ReplicaPool pool(*net, calib, tiers, replicas_per_tier);
  Server server(pool, cfg);
  return server.run_trace(trace);
}

// Hang + corrupt + crash against a 2-replica pool: every lane fault kind.
inline faults::LaneFaultSchedule mixed_schedule(
    const std::vector<TierSpec>& tiers) {
  const Tick t0 = tiers[0].ticks_per_image;
  faults::LaneFaultSchedule s;
  faults::LaneFault hang;
  hang.kind = faults::LaneFaultKind::kHangLane;
  hang.tier = 0;
  hang.replica = 0;
  hang.at_tick = 0;
  hang.hang_ticks = 100 * t0;  // far past any watchdog budget
  s.faults.push_back(hang);
  faults::LaneFault corrupt;
  corrupt.kind = faults::LaneFaultKind::kCorruptLane;
  corrupt.tier = 0;
  corrupt.replica = 1;
  corrupt.at_tick = 2 * t0;
  corrupt.corrupt_flips = 16;
  corrupt.seed = 77;
  s.faults.push_back(corrupt);
  faults::LaneFault crash;
  crash.kind = faults::LaneFaultKind::kCrashLane;
  crash.tier = 1;
  crash.replica = 0;
  crash.at_tick = 4 * t0;
  s.faults.push_back(crash);
  faults::validate_schedule(s);
  return s;
}

}  // namespace qnn::serve
