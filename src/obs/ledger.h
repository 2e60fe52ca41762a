// Per-request energy/ops attribution ledger (DESIGN.md §14).
//
// The serving layer charges every forward pass to the requests that
// rode it: one EnergyCharge per (request, dispatch attempt), priced by
// the hw logic/energy model at the EXECUTING tier's precision
// (ops = schedule MACs per image, energy = per-image energy in pJ).
// Discarded executions — watchdog-doomed, audit-tainted, crashed — are
// charged too and simply never marked published, so the ledger answers
// both "what did this request cost" and "how much of that was wasted on
// executions that never produced its response".
//
// The ledger is plain serial state driven by the server's event loop
// (no locks, no atomics): charge order is the deterministic dispatch
// order, so totals — including the floating-point accumulation order —
// replay bit-identically at any worker-thread count. It never feeds
// back into scheduling, so attribution on/off cannot perturb response
// bytes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace qnn::obs {

// One execution's cost, charged to one request.
struct EnergyCharge {
  std::int64_t request_id = -1;
  std::int64_t tick = 0;   // virtual dispatch tick
  int tier = 0;            // tier that executed (post-redirect)
  int lane = -1;           // flat executor lane index
  int attempt = 1;         // dispatch attempt (unique per request)
  std::int64_t ops = 0;    // modeled MACs for this request's image
  double energy_pj = 0.0;  // hw model energy for this request's image
  bool published = false;  // true once this execution's result shipped
};

// Per-request fold of the charges.
struct RequestAttribution {
  std::int64_t executions = 0;
  std::int64_t ops = 0;
  double energy_pj = 0.0;
  double published_energy_pj = 0.0;

  double wasted_energy_pj() const { return energy_pj - published_energy_pj; }
};

class AttributionLedger {
 public:
  // Appends a charge. (request_id, attempt) must be unique: a batch is
  // dispatched at most once per attempt number.
  void charge(const EnergyCharge& c);

  // Marks the charge for (request_id, attempt) as published — called
  // when that execution's result is handed to the server. CheckError if
  // no such charge exists or it was already published.
  void mark_published(std::int64_t request_id, int attempt);

  RequestAttribution totals_for(std::int64_t request_id) const;
  // This request's charges in charge (dispatch) order.
  std::vector<const EnergyCharge*> charges_for(std::int64_t request_id) const;

  const std::vector<EnergyCharge>& charges() const { return charges_; }
  std::int64_t total_ops() const { return total_ops_; }
  double total_energy_pj() const { return total_pj_; }
  double published_energy_pj() const { return published_pj_; }
  double wasted_energy_pj() const { return total_pj_ - published_pj_; }

 private:
  std::vector<EnergyCharge> charges_;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> by_request_;
  std::int64_t total_ops_ = 0;
  double total_pj_ = 0.0;
  double published_pj_ = 0.0;
};

}  // namespace qnn::obs
