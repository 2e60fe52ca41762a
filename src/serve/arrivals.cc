#include "serve/arrivals.h"

#include <cmath>
#include <utility>

#include "faults/injector.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/fileio.h"
#include "util/json.h"
#include "util/rng.h"

namespace qnn::serve {
namespace {

constexpr std::int64_t kTraceVersion = 1;

}  // namespace

Shape ArrivalTrace::sample_shape() const {
  std::vector<std::int64_t> dims;
  dims.reserve(sample_dims.size() + 1);
  dims.push_back(1);
  for (std::int64_t d : sample_dims) dims.push_back(d);
  return Shape(dims);
}

ArrivalTrace make_open_loop_trace(const OpenLoopSpec& spec,
                                  std::vector<std::int64_t> sample_dims) {
  QNN_CHECK_MSG(spec.num_requests >= 0, "negative num_requests");
  QNN_CHECK_MSG(spec.mean_interarrival_ticks >= 0.0,
                "negative mean inter-arrival time");
  ArrivalTrace trace;
  trace.sample_dims = std::move(sample_dims);
  trace.requests.reserve(static_cast<std::size_t>(spec.num_requests));
  Rng gaps(faults::derive_seed(spec.seed, /*salt=*/0x6172726976ull));
  Tick arrival = 0;
  for (std::int64_t i = 0; i < spec.num_requests; ++i) {
    if (i > 0) {
      double gap = spec.mean_interarrival_ticks;
      if (spec.poisson) {
        // Inverse-CDF exponential draw; uniform() is in [0, 1) so the
        // log argument stays strictly positive.
        gap = -spec.mean_interarrival_ticks * std::log(1.0 - gaps.uniform());
      }
      arrival += static_cast<Tick>(std::llround(gap));
    }
    TraceRequest r;
    r.id = i;
    r.arrival = arrival;
    r.deadline = arrival + spec.relative_deadline_ticks;
    r.payload_seed =
        faults::derive_seed2(spec.seed, /*a=*/0x7061796cull,
                             /*b=*/static_cast<std::uint64_t>(i));
    trace.requests.push_back(r);
  }
  return trace;
}

Tensor default_payload(const TraceRequest& r, const Shape& sample_shape) {
  Tensor t(sample_shape);
  Rng rng(r.payload_seed);
  t.fill_uniform(rng, 0.0f, 1.0f);
  return t;
}

void save_trace(const std::string& path, const ArrivalTrace& trace) {
  json::Value doc = json::Value::object();
  doc.set("version", json::Value(kTraceVersion));
  json::Value dims = json::Value::array();
  for (std::int64_t d : trace.sample_dims) dims.push_back(json::Value(d));
  doc.set("sample_dims", std::move(dims));
  json::Value reqs = json::Value::array();
  for (const TraceRequest& r : trace.requests) {
    json::Value jr = json::Value::object();
    jr.set("id", json::Value(r.id));
    jr.set("arrival", json::Value(r.arrival));
    jr.set("deadline", json::Value(r.deadline));
    // Seeds span the full uint64 range; store the two's-complement
    // bit pattern (json ints are int64) and undo it on load.
    jr.set("payload_seed",
           json::Value(static_cast<std::int64_t>(r.payload_seed)));
    reqs.push_back(std::move(jr));
  }
  doc.set("requests", std::move(reqs));
  write_file_atomic(path, doc.dump());
}

ArrivalTrace load_trace(const std::string& path) {
  // Every failure below throws CheckError carrying `path` (and, for
  // syntax errors, the line where json::parse gave up), so a truncated
  // copy or an unrelated file dropped at the trace path is diagnosable
  // from the message alone.
  const std::string text = read_file(path);
  QNN_CHECK_MSG(!text.empty(), "trace file " << path << " is empty");
  const json::Value doc = json::parse(text, path);
  QNN_CHECK_MSG(doc.kind() == json::Value::Kind::kObject,
                "trace file " << path << " is not a JSON object");
  for (const char* key : {"version", "sample_dims", "requests"}) {
    QNN_CHECK_MSG(doc.contains(key),
                  "trace file " << path << " is missing \"" << key << "\"");
  }
  QNN_CHECK_MSG(doc.at("version").kind() == json::Value::Kind::kInt &&
                    doc.at("version").as_int() == kTraceVersion,
                "unsupported trace version in " << path << " (want "
                                                << kTraceVersion << ")");
  ArrivalTrace trace;
  QNN_CHECK_MSG(doc.at("sample_dims").kind() == json::Value::Kind::kArray,
                "\"sample_dims\" is not an array in " << path);
  for (const json::Value& d : doc.at("sample_dims").items()) {
    QNN_CHECK_MSG(d.kind() == json::Value::Kind::kInt && d.as_int() > 0,
                  "non-positive sample dim in " << path);
    trace.sample_dims.push_back(d.as_int());
  }
  QNN_CHECK_MSG(!trace.sample_dims.empty(),
                "trace file " << path << " has an empty sample shape");
  QNN_CHECK_MSG(doc.at("requests").kind() == json::Value::Kind::kArray,
                "\"requests\" is not an array in " << path);
  Tick prev_arrival = 0;
  std::size_t index = 0;
  for (const json::Value& jr : doc.at("requests").items()) {
    QNN_CHECK_MSG(jr.kind() == json::Value::Kind::kObject,
                  "request " << index << " in " << path
                             << " is not a JSON object");
    for (const char* key : {"id", "arrival", "deadline", "payload_seed"}) {
      QNN_CHECK_MSG(jr.contains(key) &&
                        jr.at(key).kind() == json::Value::Kind::kInt,
                    "request " << index << " in " << path
                               << " is missing integer \"" << key << "\"");
    }
    TraceRequest r;
    r.id = jr.at("id").as_int();
    r.arrival = jr.at("arrival").as_int();
    r.deadline = jr.at("deadline").as_int();
    r.payload_seed = static_cast<std::uint64_t>(jr.at("payload_seed").as_int());
    QNN_CHECK_MSG(r.id >= 0,
                  "negative id on request " << index << " in " << path);
    QNN_CHECK_MSG(r.arrival >= 0,
                  "negative arrival tick on request " << index << " in "
                                                      << path);
    QNN_CHECK_MSG(r.deadline >= r.arrival,
                  "deadline before arrival on request " << index << " in "
                                                        << path);
    QNN_CHECK_MSG(r.arrival >= prev_arrival,
                  "trace arrivals not sorted at request " << index << " in "
                                                          << path);
    prev_arrival = r.arrival;
    trace.requests.push_back(r);
    ++index;
  }
  return trace;
}

}  // namespace qnn::serve
