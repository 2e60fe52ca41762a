#include "obs/ledger.h"

#include "util/check.h"

namespace qnn::obs {

void AttributionLedger::charge(const EnergyCharge& c) {
  QNN_CHECK_MSG(c.request_id >= 0, "charge against an unidentified request");
  QNN_CHECK_MSG(c.ops >= 0 && c.energy_pj >= 0.0,
                "negative attribution for request " << c.request_id);
  for (const std::size_t i : by_request_[c.request_id]) {
    QNN_CHECK_MSG(charges_[i].attempt != c.attempt,
                  "duplicate charge for request " << c.request_id
                                                  << " attempt " << c.attempt);
  }
  by_request_[c.request_id].push_back(charges_.size());
  charges_.push_back(c);
  charges_.back().published = false;
  total_ops_ += c.ops;
  total_pj_ += c.energy_pj;
}

void AttributionLedger::mark_published(std::int64_t request_id, int attempt) {
  const auto it = by_request_.find(request_id);
  QNN_CHECK_MSG(it != by_request_.end(),
                "publish for never-charged request " << request_id);
  for (const std::size_t i : it->second) {
    EnergyCharge& c = charges_[i];
    if (c.attempt != attempt) continue;
    QNN_CHECK_MSG(!c.published, "request " << request_id << " attempt "
                                           << attempt << " published twice");
    c.published = true;
    published_pj_ += c.energy_pj;
    return;
  }
  QNN_CHECK_MSG(false, "publish for uncharged attempt " << attempt
                                                        << " of request "
                                                        << request_id);
}

RequestAttribution AttributionLedger::totals_for(
    std::int64_t request_id) const {
  RequestAttribution a;
  const auto it = by_request_.find(request_id);
  if (it == by_request_.end()) return a;
  for (const std::size_t i : it->second) {
    const EnergyCharge& c = charges_[i];
    ++a.executions;
    a.ops += c.ops;
    a.energy_pj += c.energy_pj;
    if (c.published) a.published_energy_pj += c.energy_pj;
  }
  return a;
}

std::vector<const EnergyCharge*> AttributionLedger::charges_for(
    std::int64_t request_id) const {
  std::vector<const EnergyCharge*> out;
  const auto it = by_request_.find(request_id);
  if (it == by_request_.end()) return out;
  out.reserve(it->second.size());
  for (const std::size_t i : it->second) out.push_back(&charges_[i]);
  return out;
}

}  // namespace qnn::obs
