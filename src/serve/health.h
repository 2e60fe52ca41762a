// Replica-lane health lattice (DESIGN.md §13).
//
// Every executor lane (one replica of one precision tier) carries a
// four-state health machine:
//
//   healthy ──strike──▶ suspect ──strikes/corrupt──▶ quarantined
//      ▲                                                  │
//      └────────────── rescrubbed (params restored) ──────┘
//                                                         │
//   dead ◀── crash / rescrub budget exhausted ────────────┘
//
// Strikes come from the virtual-time watchdog (a batch overran its
// execution budget); definite evidence — a parameter-CRC audit mismatch
// against the tier's golden image, or a NaN/Inf in the output where the
// guard scan proves the replica itself is broken — quarantines the lane
// immediately. A quarantined lane is unschedulable until its rescrub
// completes (`quarantine_ticks` of virtual time later): parameters are
// re-read from the ECC-protected masters via
// QuantizedNetwork::rescrub_layer_params and the CRC re-audited. Each
// lane gets `max_rescrubs` repairs over its lifetime; beyond that (or
// on a crash fault) it is dead and never scheduled again.
//
// Everything is a pure function of (virtual tick, event sequence): the
// transition log replays bit-identically at any thread count and is
// folded into the server's replay digest.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/request.h"

namespace qnn::serve {

enum class LaneState {
  kHealthy = 0,
  kSuspect,      // struck by the watchdog; still schedulable
  kQuarantined,  // awaiting rescrub; not schedulable
  kDead,         // crashed or rescrub budget exhausted; permanent
};

const char* lane_state_name(LaneState s);

// Why a transition fired (recorded in the log, never branches on it).
enum class HealthReason {
  kHangStrike = 0,   // watchdog declared a batch hung
  kCorruptDetected,  // param CRC mismatch or poisoned output
  kCrash,            // crash fault: lane is gone
  kRescrubbed,       // repair verified; back to healthy
  kRescrubFailed,    // repair did not restore the golden image
  kRescrubExhausted, // needed another rescrub past max_rescrubs
  kFailStop,         // fail-stop policy retires the lane on any fault
};

const char* health_reason_name(HealthReason r);

struct HealthConfig {
  int suspect_strikes = 2;    // watchdog strikes before quarantine
  Tick quarantine_ticks = 0;  // virtual rescrub latency
  int max_rescrubs = 2;       // lifetime repairs per lane
};

struct HealthTransition {
  Tick tick = 0;
  int lane = 0;  // flat lane index: tier * replicas_per_tier + replica
  LaneState from = LaneState::kHealthy;
  LaneState to = LaneState::kHealthy;
  HealthReason reason = HealthReason::kHangStrike;

  bool operator==(const HealthTransition&) const = default;
};

std::string transition_to_string(const HealthTransition& t);

// The per-lane state machines plus the shared transition log. The
// lattice only tracks state; the ExecutorGroup decides WHEN to call it
// and performs the actual rescrub I/O.
class HealthLattice {
 public:
  HealthLattice(int num_lanes, const HealthConfig& config);

  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  LaneState state(int lane) const;
  // Healthy and suspect lanes accept work; quarantined/dead do not.
  bool schedulable(int lane) const;
  int schedulable_count() const;

  // Watchdog strike: healthy -> suspect, suspect -> (strikes ==
  // suspect_strikes) quarantined. No-op on quarantined/dead lanes.
  void on_hang(Tick now, int lane);
  // Definite corruption: straight to quarantine (or dead if the rescrub
  // budget is exhausted).
  void on_corrupt(Tick now, int lane);
  // Crash fault: the lane is permanently gone.
  void on_crash(Tick now, int lane);
  // Fail-stop policy: any fault retires the lane without repair.
  void on_fail_stop(Tick now, int lane);

  static constexpr Tick kNoTick = -1;
  // This lane's rescrub due tick, or kNoTick when not quarantined.
  Tick rescrub_due(int lane) const;
  // Quarantined lanes whose rescrub is due at `now`, in lane order.
  std::vector<int> due_rescrubs(Tick now) const;
  // Reports the repair outcome: ok -> healthy (strikes reset), !ok ->
  // dead (the masters themselves cannot be trusted).
  void on_rescrubbed(Tick now, int lane, bool ok);

  const std::vector<HealthTransition>& log() const { return log_; }
  std::int64_t rescrubs() const { return rescrubs_; }

  // Called synchronously after each transition is appended to the log
  // (request tracing hooks in here; the lattice never branches on it).
  void set_observer(std::function<void(const HealthTransition&)> observer) {
    observer_ = std::move(observer);
  }

 private:
  struct LaneHealth {
    LaneState state = LaneState::kHealthy;
    int strikes = 0;
    int rescrubs_used = 0;
    Tick rescrub_due = kNoTick;
  };

  void transition(Tick now, int lane, LaneState to, HealthReason reason);
  void quarantine_or_kill(Tick now, int lane, HealthReason reason);

  HealthConfig config_;
  std::vector<LaneHealth> lanes_;
  std::vector<HealthTransition> log_;
  std::int64_t rescrubs_ = 0;
  std::function<void(const HealthTransition&)> observer_;
};

}  // namespace qnn::serve
