#include "serve/health.h"

#include <sstream>

#include "obs/metrics.h"
#include "util/check.h"

namespace qnn::serve {
namespace {

struct HealthMetrics {
  obs::Counter strikes, quarantines, crashes, rescrubs, deaths;
  obs::Gauge schedulable;
};

HealthMetrics& health_metrics() {
  obs::Registry& r = obs::Registry::global();
  static HealthMetrics m{r.counter("serve.health.strikes"),
                         r.counter("serve.health.quarantines"),
                         r.counter("serve.health.crashes"),
                         r.counter("serve.health.rescrubs"),
                         r.counter("serve.health.deaths"),
                         r.gauge("serve.health.schedulable_lanes")};
  return m;
}

}  // namespace

const char* lane_state_name(LaneState s) {
  switch (s) {
    case LaneState::kHealthy:     return "healthy";
    case LaneState::kSuspect:     return "suspect";
    case LaneState::kQuarantined: return "quarantined";
    case LaneState::kDead:        return "dead";
  }
  return "?";
}

const char* health_reason_name(HealthReason r) {
  switch (r) {
    case HealthReason::kHangStrike:       return "hang_strike";
    case HealthReason::kCorruptDetected:  return "corrupt_detected";
    case HealthReason::kCrash:            return "crash";
    case HealthReason::kRescrubbed:       return "rescrubbed";
    case HealthReason::kRescrubFailed:    return "rescrub_failed";
    case HealthReason::kRescrubExhausted: return "rescrub_exhausted";
    case HealthReason::kFailStop:         return "fail_stop";
  }
  return "?";
}

std::string transition_to_string(const HealthTransition& t) {
  std::ostringstream os;
  os << "t=" << t.tick << " lane=" << t.lane << " "
     << lane_state_name(t.from) << "->" << lane_state_name(t.to) << " ("
     << health_reason_name(t.reason) << ")";
  return os.str();
}

HealthLattice::HealthLattice(int num_lanes, const HealthConfig& config)
    : config_(config), lanes_(static_cast<std::size_t>(num_lanes)) {
  QNN_CHECK_MSG(num_lanes >= 1, "health lattice needs at least one lane");
  QNN_CHECK_MSG(config.suspect_strikes >= 1,
                "suspect_strikes must be positive");
  QNN_CHECK_MSG(config.quarantine_ticks >= 0,
                "quarantine_ticks must be >= 0");
  QNN_CHECK_MSG(config.max_rescrubs >= 0, "max_rescrubs must be >= 0");
  health_metrics().schedulable.set(num_lanes);
}

LaneState HealthLattice::state(int lane) const {
  return lanes_.at(static_cast<std::size_t>(lane)).state;
}

bool HealthLattice::schedulable(int lane) const {
  const LaneState s = state(lane);
  return s == LaneState::kHealthy || s == LaneState::kSuspect;
}

int HealthLattice::schedulable_count() const {
  int n = 0;
  for (int i = 0; i < num_lanes(); ++i) n += schedulable(i) ? 1 : 0;
  return n;
}

void HealthLattice::transition(Tick now, int lane, LaneState to,
                               HealthReason reason) {
  LaneHealth& l = lanes_.at(static_cast<std::size_t>(lane));
  log_.push_back(HealthTransition{now, lane, l.state, to, reason});
  if (observer_) observer_(log_.back());
  l.state = to;
  health_metrics().schedulable.set(schedulable_count());
  if (to == LaneState::kDead) health_metrics().deaths.inc();
}

void HealthLattice::quarantine_or_kill(Tick now, int lane,
                                       HealthReason reason) {
  LaneHealth& l = lanes_.at(static_cast<std::size_t>(lane));
  if (l.rescrubs_used >= config_.max_rescrubs) {
    transition(now, lane, LaneState::kDead, HealthReason::kRescrubExhausted);
    return;
  }
  l.rescrub_due = now + config_.quarantine_ticks;
  health_metrics().quarantines.inc();
  transition(now, lane, LaneState::kQuarantined, reason);
}

void HealthLattice::on_hang(Tick now, int lane) {
  LaneHealth& l = lanes_.at(static_cast<std::size_t>(lane));
  if (!schedulable(lane)) return;  // already isolated
  health_metrics().strikes.inc();
  ++l.strikes;
  if (l.strikes >= config_.suspect_strikes) {
    quarantine_or_kill(now, lane, HealthReason::kHangStrike);
  } else if (l.state == LaneState::kHealthy) {
    transition(now, lane, LaneState::kSuspect, HealthReason::kHangStrike);
  }
}

void HealthLattice::on_corrupt(Tick now, int lane) {
  if (state(lane) == LaneState::kDead ||
      state(lane) == LaneState::kQuarantined) {
    return;
  }
  quarantine_or_kill(now, lane, HealthReason::kCorruptDetected);
}

void HealthLattice::on_crash(Tick now, int lane) {
  if (state(lane) == LaneState::kDead) return;
  health_metrics().crashes.inc();
  transition(now, lane, LaneState::kDead, HealthReason::kCrash);
}

void HealthLattice::on_fail_stop(Tick now, int lane) {
  if (state(lane) == LaneState::kDead) return;
  transition(now, lane, LaneState::kDead, HealthReason::kFailStop);
}

Tick HealthLattice::rescrub_due(int lane) const {
  const LaneHealth& l = lanes_.at(static_cast<std::size_t>(lane));
  return l.state == LaneState::kQuarantined ? l.rescrub_due : kNoTick;
}

std::vector<int> HealthLattice::due_rescrubs(Tick now) const {
  std::vector<int> due;
  for (int i = 0; i < num_lanes(); ++i) {
    const LaneHealth& l = lanes_[static_cast<std::size_t>(i)];
    if (l.state == LaneState::kQuarantined && l.rescrub_due <= now) {
      due.push_back(i);
    }
  }
  return due;
}

void HealthLattice::on_rescrubbed(Tick now, int lane, bool ok) {
  LaneHealth& l = lanes_.at(static_cast<std::size_t>(lane));
  QNN_CHECK_MSG(l.state == LaneState::kQuarantined,
                "rescrub reported for a lane not in quarantine");
  ++l.rescrubs_used;
  ++rescrubs_;
  health_metrics().rescrubs.inc();
  if (ok) {
    l.strikes = 0;
    l.rescrub_due = kNoTick;
    transition(now, lane, LaneState::kHealthy, HealthReason::kRescrubbed);
  } else {
    transition(now, lane, LaneState::kDead, HealthReason::kRescrubFailed);
  }
}

}  // namespace qnn::serve
