#include "faults/lane_faults.h"

#include <algorithm>
#include <cmath>

#include "faults/injector.h"
#include "util/check.h"
#include "util/rng.h"

namespace qnn::faults {

void validate_schedule(const LaneFaultSchedule& schedule) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < schedule.faults.size(); ++i) {
    const LaneFault& f = schedule.faults[i];
    QNN_CHECK_MSG(f.at_tick >= 0,
                  "lane fault " << i << " has negative at_tick");
    QNN_CHECK_MSG(f.at_tick >= prev,
                  "lane fault " << i << " not sorted by at_tick");
    prev = f.at_tick;
    QNN_CHECK_MSG(f.tier >= 0 && f.replica >= 0,
                  "lane fault " << i << " targets negative lane");
    switch (f.kind) {
      case LaneFaultKind::kHangLane:
        QNN_CHECK_MSG(f.hang_ticks > 0,
                      "hang fault " << i << " needs positive hang_ticks");
        break;
      case LaneFaultKind::kCorruptLane:
        QNN_CHECK_MSG(f.corrupt_flips > 0,
                      "corrupt fault " << i << " needs positive flips");
        break;
      case LaneFaultKind::kCrashLane:
        break;
    }
  }
}

LaneFaultSchedule make_chaos_schedule(const ChaosSpec& spec) {
  QNN_CHECK_MSG(spec.num_faults >= 0, "negative num_faults");
  QNN_CHECK_MSG(spec.horizon_ticks > 0 || spec.num_faults == 0,
                "chaos schedule needs a positive horizon");
  QNN_CHECK_MSG(spec.num_tiers >= 1 && spec.replicas_per_tier >= 1,
                "chaos schedule needs at least one lane");
  Rng rng(derive_seed(spec.seed, /*salt=*/0x6368616f73ull));  // "chaos"
  LaneFaultSchedule schedule;
  schedule.faults.reserve(static_cast<std::size_t>(spec.num_faults));
  for (int i = 0; i < spec.num_faults; ++i) {
    LaneFault f;
    const int kinds = spec.allow_crash ? 3 : 2;
    f.kind = static_cast<LaneFaultKind>(rng.uniform_int(0, kinds - 1));
    f.tier = rng.uniform_int(0, spec.num_tiers - 1);
    f.replica = rng.uniform_int(0, spec.replicas_per_tier - 1);
    f.at_tick = static_cast<std::int64_t>(
        rng.uniform(0.0, static_cast<double>(spec.horizon_ticks)));
    f.hang_ticks = std::max<std::int64_t>(
        1, spec.mean_hang_ticks +
               static_cast<std::int64_t>(
                   rng.uniform(0.0, 1.0) *
                   static_cast<double>(std::max<std::int64_t>(
                       1, spec.mean_hang_ticks))));
    f.corrupt_flips = std::max(1, spec.corrupt_flips);
    f.seed = derive_seed2(spec.seed, /*a=*/0x636f7272ull,
                          /*b=*/static_cast<std::uint64_t>(i));
    schedule.faults.push_back(f);
  }
  std::stable_sort(schedule.faults.begin(), schedule.faults.end(),
                   [](const LaneFault& a, const LaneFault& b) {
                     return a.at_tick < b.at_tick;
                   });
  validate_schedule(schedule);
  return schedule;
}

}  // namespace qnn::faults
