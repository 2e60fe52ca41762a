// Executor-level fault kinds for the serving layer's chaos harness.
//
// The injector/campaign machinery (injector.h, campaign.h) models
// VALUE-level upsets: bits flipping inside stored tensors. A serving
// stack dies in coarser ways too — a replica lane wedges (driver hang,
// page-fault storm), its weight memory rots wholesale, or the process
// behind it crashes. A LaneFault describes one such event against one
// executor lane (tier, replica) at one virtual tick:
//
//   kHangLane    — the lane's NEXT batch dispatch takes `hang_ticks`
//                  longer than its modeled service time, tripping the
//                  virtual-time watchdog when the overrun exceeds the
//                  execution budget;
//   kCorruptLane — `corrupt_flips` bit flips (FloatCodec, i.e. raw
//                  upsets in the frozen in-memory parameter image) are
//                  applied to the lane replica's parameters, to be
//                  caught by the post-batch parameter-CRC audit and
//                  repaired by rescrubbing from masters;
//   kCrashLane   — the lane dies permanently at `at_tick`; any batch
//                  in flight on it is lost and must be re-dispatched.
//
// A schedule is a plain sorted list of such events — COMPLETELY
// deterministic, no RNG at apply time — so a chaos replay is as
// bit-reproducible as a fault-free one. make_chaos_schedule derives a
// randomized-but-deterministic schedule from a seed for sweeps.
#pragma once

#include <cstdint>
#include <vector>

namespace qnn::faults {

enum class LaneFaultKind {
  kHangLane = 0,
  kCorruptLane,
  kCrashLane,
};

struct LaneFault {
  LaneFaultKind kind = LaneFaultKind::kHangLane;
  int tier = 0;
  int replica = 0;
  std::int64_t at_tick = 0;   // virtual tick the fault lands
  std::int64_t hang_ticks = 0;  // kHangLane: service-time inflation
  int corrupt_flips = 0;        // kCorruptLane: bit flips into params
  std::uint64_t seed = 0;       // kCorruptLane: flip-site stream
};

struct LaneFaultSchedule {
  std::vector<LaneFault> faults;  // nondecreasing at_tick

  bool empty() const { return faults.empty(); }
};

// Validates kind-specific fields and the at_tick sort; throws
// CheckError naming the offending entry.
void validate_schedule(const LaneFaultSchedule& schedule);

// Deterministic randomized schedule for chaos sweeps: `num_faults`
// events over [0, horizon_ticks), kinds/lanes/params all derived from
// `seed` (same seed, same schedule, byte for byte).
struct ChaosSpec {
  int num_faults = 4;
  std::int64_t horizon_ticks = 0;
  int num_tiers = 1;
  int replicas_per_tier = 1;
  std::int64_t mean_hang_ticks = 0;  // hang inflation magnitude
  int corrupt_flips = 8;             // flips per corrupt event
  std::uint64_t seed = 1;
  bool allow_crash = true;  // false: only recoverable kinds
};

LaneFaultSchedule make_chaos_schedule(const ChaosSpec& spec);

}  // namespace qnn::faults
