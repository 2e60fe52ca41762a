// qnn_bench: the end-to-end and per-layer benchmark of the qnn library.
//
//   qnn_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--smoke]
//
// One process, one caller thread, the global pool at kPoolThreads.
// Each workload builds its inputs from --seed, sets up (timed and
// repeated), computes its correctness references (untimed), runs one
// untimed warm-up op and then runs ops back to back for --seconds. Every
// op's outputs are checked against the references. setup_s and op_p50_ms
// are composed from the medians of the parts of a set-up or an op (see
// PartTimes).
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// runs the same workload for half the time untraced and half traced
// (the difference is the tracing overhead), then runs the per-layer
// probes, and reports the per-layer metrics. Spans are recorded here,
// around calls into the library's public functions (nn, quant, hw, exp,
// data, serve), kept in memory and written at exit; qnn_bench never
// calls tensor/gemm entry points directly.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Result files land in --out (default .bench_out):
//   <workload>.s<seed>.e2e.json     untraced result with run metadata
//   <workload>.s<seed>.layers.json  traced result, per-layer rows
//   <workload>.s<seed>.trace.json   chrome://tracing spans
//
// Exit status: 0 with a result, 1 on bad arguments or an error, 2 when
// the build is not an optimized NDEBUG build (nothing is measured).
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "exp/sweep.h"
#include "hw/nfu_sim.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "quant/qat.h"
#include "quant/qnetwork.h"
#include "serve/server.h"
#include "serve/slo.h"
#include "tensor/microkernel.h"
#include "util/crc32.h"
#include "util/fileio.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/thread_pool.h"

#ifndef QNN_BENCH_BUILD_TYPE
#define QNN_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef QNN_BENCH_CXX_FLAGS
#define QNN_BENCH_CXX_FLAGS "unknown"
#endif

namespace qnn::qb {
namespace {

// The global pool size for every measurement, whatever the machine or
// QNN_THREADS says. On a virtual machine that shares its host, vCPUs are
// not independent cores (a busy second vCPU slows the first), so a wider
// pool waits on whichever vCPU is slowest and on waking idle vCPUs for
// every parallel region; op times turn bimodal and drift between runs by
// more than the bounds. One thread measures the kernels and the layers,
// not the scheduler; parallel scaling is micro_bench's job.
constexpr int kPoolThreads = 1;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// splitmix64 over (seed, stream, index): independent input streams per
// purpose and per network, all from the one --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index = 0) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                    index * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Build guard and run metadata.

// Empty when the build may be measured, else why not.
std::string build_refusal() {
  const std::string type = QNN_BENCH_BUILD_TYPE;
  const std::string flags = QNN_BENCH_CXX_FLAGS;
#ifndef NDEBUG
  return "NDEBUG is not defined (assertions are on)";
#endif
#ifndef __OPTIMIZE__
  return "compiled without optimization";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  std::string lower = type;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  if (lower == "debug") return "CMAKE_BUILD_TYPE is Debug";
  if (flags.find("-fsanitize") != std::string::npos)
    return "sanitizer flags in the compile line";
  if (flags.find("-O0") != std::string::npos) return "-O0 in the compile line";
  return "";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

// Peak fused multiply-add rate of the global pool, from independent FMA
// chains compiled with this build's flags (GFLOP/s, 2 flops per FMA).
double measure_fma_peak_gflops() {
  constexpr int kChains = 96;  // enough independent chains to fill the FMA ports
  constexpr std::int64_t kIters = std::int64_t{1} << 19;
  const int threads = ThreadPool::global().size();
  volatile float va = 0.999999f;
  volatile float vb = 1e-7f;
  const float a = va;
  const float b = vb;
  std::vector<Padded<double>> sink(static_cast<std::size_t>(threads));
  double best_s = 1e30;
  for (int rep = 0; rep < 20; ++rep) {
    const double t0 = now_us();
    parallel_run(threads, [&](std::int64_t t) {
      float acc[kChains];
      for (int k = 0; k < kChains; ++k) acc[k] = 0.001f * static_cast<float>(k + t);
      for (std::int64_t it = 0; it < kIters; ++it)
        for (int k = 0; k < kChains; ++k) acc[k] = std::fma(acc[k], a, b);
      double s = 0.0;
      for (int k = 0; k < kChains; ++k) s += acc[k];
      sink[static_cast<std::size_t>(t)].v = s;
    });
    best_s = std::min(best_s, (now_us() - t0) * 1e-6);
  }
  double keep = 0.0;
  for (const auto& s : sink) keep += s.v;
  if (!std::isfinite(keep)) return 0.0;
  return 2.0 * kChains * static_cast<double>(kIters) * threads / best_s / 1e9;
}

// Copy bandwidth of the global pool over 32 MiB buffers, counting bytes
// read plus bytes written (GB/s).
double measure_copy_gbps() {
  constexpr std::size_t kBytes = std::size_t{32} << 20;
  const int threads = ThreadPool::global().size();
  std::vector<char> src(kBytes, 1), dst(kBytes, 0);
  const std::size_t chunk = kBytes / static_cast<std::size_t>(threads);
  double best_s = 1e30;
  for (int rep = 0; rep < 10; ++rep) {
    const double t0 = now_us();
    parallel_run(threads, [&](std::int64_t t) {
      const std::size_t off = chunk * static_cast<std::size_t>(t);
      std::memcpy(dst.data() + off, src.data() + off, chunk);
    });
    if (rep > 0) best_s = std::min(best_s, (now_us() - t0) * 1e-6);
  }
  if (dst[kBytes / 2] != 1) return 0.0;
  return 2.0 * static_cast<double>(chunk * static_cast<std::size_t>(threads)) /
         best_s / 1e9;
}

struct Machine {
  double fma_peak_gflops = 0.0;
  double copy_gbps = 0.0;
  json::Value to_json() const {
    json::Value m = json::Value::object();
    m.set("build_type", json::Value(QNN_BENCH_BUILD_TYPE));
    m.set("cxx_flags", json::Value(QNN_BENCH_CXX_FLAGS));
    m.set("simd_support", json::Value(simd_level_name(simd_support())));
    m.set("simd_active", json::Value(simd_level_name(active_simd_level())));
    m.set("threads", json::Value(ThreadPool::global().size()));
    m.set("cpu_model", json::Value(cpu_model()));
    m.set("fma_peak_gflops", json::Value(fma_peak_gflops));
    m.set("copy_gbps", json::Value(copy_gbps));
    return m;
  }
};

// ---------------------------------------------------------------------
// Spans. One caller thread records them, so they nest strictly: a span's
// self time is its duration minus its direct children's durations.

struct Span {
  std::string name;
  std::int64_t arg = -1;  // layer / config index; -1 when unused
  int id = 0;             // workload-scoped: index in the run's span list
  int parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
  double child_us = 0.0;
};

class Tracer {
 public:
  void set_enabled(bool on) { on_ = on; }

  int open(std::string name, std::int64_t arg) {
    if (!on_) return -1;
    Span s;
    s.name = std::move(name);
    s.arg = arg;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_us = now_us();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    stack_.pop_back();
    if (s.parent >= 0)
      spans_[static_cast<std::size_t>(s.parent)].child_us += s.end_us - s.start_us;
  }

  double duration_ms(int id) const {
    const Span& s = spans_.at(static_cast<std::size_t>(id));
    return (s.end_us - s.start_us) / 1e3;
  }
  double self_ms(int id) const {
    return duration_ms(id) - spans_.at(static_cast<std::size_t>(id)).child_us / 1e3;
  }

  json::Value chrome_trace() const {
    json::Value events = json::Value::array();
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
    for (const Span& s : spans_) {
      json::Value e = json::Value::object();
      e.set("name", json::Value(s.name));
      e.set("ph", json::Value("X"));
      e.set("pid", json::Value(1));
      e.set("tid", json::Value(1));
      e.set("ts", json::Value(s.start_us - t0));
      e.set("dur", json::Value(s.end_us - s.start_us));
      json::Value args = json::Value::object();
      args.set("id", json::Value(s.id));
      args.set("parent", json::Value(s.parent));
      args.set("arg", json::Value(s.arg));
      args.set("self_us", json::Value(s.end_us - s.start_us - s.child_us));
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    json::Value doc = json::Value::object();
    doc.set("displayTimeUnit", json::Value("ms"));
    doc.set("traceEvents", std::move(events));
    return doc;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name, std::int64_t arg = -1)
      : t_(t), id_(t.open(std::move(name), arg)) {}
  ~SpanScope() { t_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// Runs fn inside a span and returns the span's self time (ms). Probes
// run with the tracer on.
template <typename F>
double timed_ms(Tracer& t, std::string name, std::int64_t arg, F&& fn) {
  const int id = t.open(std::move(name), arg);
  fn();
  t.close(id);
  return t.self_ms(id);
}

// Runs fn and appends its wall time (ms) to part_ms.
template <typename F>
void time_part(std::vector<double>& part_ms, F&& fn) {
  const double t0 = now_us();
  fn();
  part_ms.push_back((now_us() - t0) / 1e3);
}

// Wall times of the parts of a repeated step (a set-up or an op), which
// runs the same parts in the same order every time. A shared host slows
// this process in spells of a fraction of a second to seconds. A part is
// short next to a spell, so its median drops the samples a spell hit; a
// step of seconds averages the spells it spans, and so does the median
// of whole steps. The step's typical time is therefore composed from its
// parts' medians.
class PartTimes {
 public:
  void add(const std::vector<double>& part_ms) {
    if (ms_.empty()) ms_.resize(part_ms.size());
    if (part_ms.size() != ms_.size())
      throw std::runtime_error("a step reported another number of parts than before");
    for (std::size_t j = 0; j < part_ms.size(); ++j) ms_[j].push_back(part_ms[j]);
  }

  double composed_p50_ms() const {
    double s = 0.0;
    for (const std::vector<double>& p : ms_) s += median(p);
    return s;
  }

  json::Value p50_json() const {
    json::Value v = json::Value::array();
    for (const std::vector<double>& p : ms_) v.push_back(json::Value(median(p)));
    return v;
  }

 private:
  std::vector<std::vector<double>> ms_;  // [part][step]
};

// ---------------------------------------------------------------------
// Checks, metrics and shared inputs.

struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void expect(bool ok, const char* what, std::int64_t index = -1) {
    ++attempted;
    if (ok) return;
    if (failed++ < 10)
      std::cerr << "qnn_bench: check failed: " << what << " [" << index << "]\n";
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out = ".bench_out";
};

// Work per op and per probe. --smoke shrinks everything so the whole
// suite runs in seconds (the bench_smoke test); its numbers are not
// comparable with full-size runs.
struct Sizes {
  double zoo_scale = 1.0;  // channel scale of the infer_* and probe nets
  std::int64_t batch = 8;
  int input_batches = 2;   // distinct batches per net, cycled by round
  // Set-up runs at least min_setups times and until setup_budget_s has
  // passed (at most max_setups), so cheap set-ups get more samples.
  int min_setups = 3;
  int max_setups = 100;
  double setup_budget_s = 2.0;
  int min_ops = 5;
  std::int64_t sweep_train = 200;
  std::int64_t sweep_test = 200;
  int sweep_float_epochs = 2;
  int sweep_qat_epochs = 1;
  std::int64_t serve_requests = 1200;
  int probe_reps = 3;
  std::int64_t fq_batch = 64;     // fake-quant overhead probe
  std::int64_t train_batch = 32;  // training-step probe
};

Sizes sizes_for(bool smoke) {
  Sizes s;
  if (!smoke) return s;
  s.zoo_scale = 0.25;
  s.min_setups = 1;
  s.max_setups = 1;
  s.min_ops = 2;
  s.sweep_train = 128;
  s.sweep_test = 128;
  s.sweep_float_epochs = 1;
  s.sweep_qat_epochs = 1;
  s.serve_requests = 100;
  s.probe_reps = 1;
  s.fq_batch = 8;
  s.train_batch = 8;
  return s;
}

// Zoo name and its metric-safe key (names allow only [A-Za-z0-9_.-]).
struct ZooNet {
  const char* zoo;
  const char* key;
};
constexpr ZooNet kNets[] = {{"lenet", "lenet"},
                            {"convnet", "convnet"},
                            {"alex", "alex"},
                            {"alex+", "alexp"},
                            {"alex++", "alexpp"}};

std::string precision_key(const quant::PrecisionConfig& p) {
  switch (p.kind) {
    case quant::PrecisionKind::kFloat: return "float";
    case quant::PrecisionKind::kFixed: return "fixed" + std::to_string(p.weight_bits);
    case quant::PrecisionKind::kPow2: return "pow2";
    case quant::PrecisionKind::kBinary: return "binary";
  }
  return "unknown";
}

// The frozen-inference configs: the paper's non-float precisions except
// fixed (32,32), which has no native path and no serving use.
std::vector<quant::PrecisionConfig> frozen_precisions() {
  return {quant::fixed_config(16, 16), quant::fixed_config(8, 8),
          quant::fixed_config(4, 4), quant::pow2_config(),
          quant::binary_config()};
}

Tensor uniform_batch(const Shape& sample, std::int64_t n, std::uint64_t seed) {
  Tensor t(Shape{n, sample[1], sample[2], sample[3]});
  Rng rng(seed);
  t.fill_uniform(rng, 0.0f, 1.0f);
  return t;
}

std::uint32_t crc_of(const Tensor& t) {
  return crc32(t.data(), static_cast<std::size_t>(t.count()) * sizeof(float));
}

bool same_values(const Tensor& a, const Tensor& b) {
  if (a.shape().dims() != b.shape().dims()) return false;
  for (std::int64_t i = 0; i < a.count(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

// The LeNet/MNIST-like sweep spec of sweep_qat (Table IV's LeNet recipe
// with less data and fewer epochs so one sweep fits a short run).
exp::ExperimentSpec sweep_spec(const Sizes& sz, std::uint64_t seed) {
  exp::ExperimentSpec s;
  s.network = "lenet";
  s.dataset = "mnist";
  s.channel_scale = 0.5;
  s.data.num_train = sz.sweep_train;
  s.data.num_test = sz.sweep_test;
  s.data.seed = mix(seed, 6);
  s.seed = mix(seed, 7);
  s.float_train.epochs = sz.sweep_float_epochs;
  s.float_train.batch_size = 32;
  s.float_train.sgd.learning_rate = 0.02;
  s.float_train.sgd.step_epochs = 3;
  s.qat_train = s.float_train;
  s.qat_train.epochs = sz.sweep_qat_epochs;
  s.qat_train.sgd.learning_rate = 0.01;
  return s;
}

// serve_loadgen's traced overload cell on an untrained LeNet (scale 0.5):
// 2x the float tier's sustainable rate, deadline 12x sustain, degrade
// policy, max batch 8, window 4x sustain. The PayloadProvider is the
// bench's: default payloads, each inside a span.
struct ServeSetup {
  std::unique_ptr<nn::Network> net;
  std::vector<serve::TierSpec> tiers;
  std::unique_ptr<serve::ReplicaPool> pool;
  serve::ArrivalTrace trace;
  serve::ServerConfig config;

  ServeSetup(const Sizes& sz, std::uint64_t seed, Tracer& tracer) {
    nn::ZooConfig zc;
    zc.channel_scale = 0.5;
    zc.init_seed = mix(seed, 1);
    net = nn::make_lenet(zc);
    tiers = serve::default_tier_lattice();
    const Shape sample = nn::input_shape_for("lenet");
    serve::derive_tier_costs(*net, sample, &tiers);
    pool = std::make_unique<serve::ReplicaPool>(
        *net, uniform_batch(sample, 64, mix(seed, 3)), tiers);
    const serve::Tick sustain =
        tiers[0].ticks_per_image + tiers[0].batch_overhead_ticks / 8;
    serve::OpenLoopSpec spec;
    spec.num_requests = sz.serve_requests;
    spec.mean_interarrival_ticks = static_cast<double>(sustain) / 2.0;
    spec.relative_deadline_ticks = 12 * sustain;
    spec.seed = mix(seed, 5);
    trace = serve::make_open_loop_trace(spec, {1, 28, 28});
    config.queue_capacity = 32;
    config.batcher.max_batch = 8;
    config.batcher.batch_window = 4 * sustain;
    config.controller.high_depth_fraction = 0.5;
    config.controller.low_depth_fraction = 0.125;
    config.controller.p99_high_ticks = spec.relative_deadline_ticks / 2;
    config.controller.p99_low_ticks = spec.relative_deadline_ticks / 4;
    config.controller.dwell_ticks = 4 * sustain;
    config.policy = serve::AdmissionPolicy::kDegrade;
    config.payload = [&tracer](const serve::TraceRequest& r, const Shape& s) {
      SpanScope span(tracer, "serve.payload");
      return serve::default_payload(r, s);
    };
  }
};

// ---------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  explicit Workload(Tracer& tracer) : tracer_(tracer) {}
  virtual ~Workload() = default;
  // Builds everything the timed loop needs and appends the wall time of
  // each of its parts to part_ms; setup_s is composed from these.
  virtual void setup(std::vector<double>& part_ms) = 0;
  // Untimed: the references the per-op checks compare against.
  virtual void reference(Checks& checks) = 0;
  // One op; returns the items it completed and appends the wall time of
  // each of its parts, in the same order on every op, to part_ms.
  virtual std::int64_t op(Checks& checks, std::vector<double>& part_ms) = 0;
  // Modeled accelerator energy per item (hw schedule), µJ.
  virtual double energy_uj_per_item() const = 0;
  virtual void add_details(json::Value&) const {}

 protected:
  Tracer& tracer_;  // spans around the calls into the library
};

// Closed loop: a round forwards one batch through each float zoo net.
class InferFloat final : public Workload {
 public:
  InferFloat(const Options& o, const Sizes& sz, Tracer& t) : Workload(t), seed_(o.seed), sz_(sz) {}

  void setup(std::vector<double>& part_ms) override {
    for (std::size_t i = 0; i < std::size(kNets); ++i) {
      Entry e;
      time_part(part_ms, [&] {
        e.sample = nn::input_shape_for(kNets[i].zoo);
        e.net = nn::make_network(kNets[i].zoo, {sz_.zoo_scale, mix(seed_, 1, i)});
        e.net->set_training_mode(false);
        for (int p = 0; p < sz_.input_batches; ++p)
          e.inputs.push_back(uniform_batch(e.sample, sz_.batch, mix(seed_, 2, i * 16 + p)));
      });
      e.span = std::string("nn.") + kNets[i].key + ".forward";
      nets_.push_back(std::move(e));
    }
  }

  void reference(Checks&) override {
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      ScopedGlobalThreads one(1);
      for (Entry& e : nets_)
        for (const Tensor& x : e.inputs) e.ref.push_back(crc_of(e.net->forward(x)));
    }
    double energy = 0.0;
    for (const Entry& e : nets_)
      energy += exp::inference_energy_uj(*e.net, e.sample, quant::float_config());
    energy_ = energy / static_cast<double>(nets_.size());
  }

  std::int64_t op(Checks& checks, std::vector<double>& part_ms) override {
    SpanScope round(tracer_, "round");
    const std::size_t p = round_++ % nets_.front().inputs.size();
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      Entry& e = nets_[i];
      Tensor out;
      {
        SpanScope span(tracer_, e.span, static_cast<std::int64_t>(i));
        time_part(part_ms, [&] { out = e.net->forward(e.inputs[p]); });
      }
      checks.expect(crc_of(out) == e.ref[p], "float forward CRC", static_cast<std::int64_t>(i));
    }
    return static_cast<std::int64_t>(nets_.size()) * sz_.batch;
  }

  double energy_uj_per_item() const override { return energy_; }

 private:
  struct Entry {
    Shape sample;
    std::unique_ptr<nn::Network> net;
    std::vector<Tensor> inputs;
    std::vector<std::uint32_t> ref;
    std::string span;
  };
  std::uint64_t seed_;
  Sizes sz_;
  std::vector<Entry> nets_;
  std::size_t round_ = 0;
  double energy_ = 0.0;
};

// Closed loop: a round forwards one batch through 25 frozen networks
// (5 nets x fixed16/fixed8/fixed4/pow2/binary).
class InferFrozen final : public Workload {
 public:
  InferFrozen(const Options& o, const Sizes& sz, Tracer& t) : Workload(t), seed_(o.seed), sz_(sz) {}

  void setup(std::vector<double>& part_ms) override {
    const auto precisions = frozen_precisions();
    for (std::size_t i = 0; i < std::size(kNets); ++i) {
      Base b;
      time_part(part_ms, [&] {
        b.sample = nn::input_shape_for(kNets[i].zoo);
        b.net = nn::make_network(kNets[i].zoo, {sz_.zoo_scale, mix(seed_, 1, i)});
        b.calibration = uniform_batch(b.sample, sz_.batch, mix(seed_, 3, i));
        for (int p = 0; p < sz_.input_batches; ++p)
          b.inputs.push_back(uniform_batch(b.sample, sz_.batch, mix(seed_, 2, i * 16 + p)));
      });
      for (const quant::PrecisionConfig& pc : precisions) {
        Config c;
        c.base = i;
        c.precision = pc;
        time_part(part_ms, [&] {
          c.net = std::make_unique<nn::Network>(b.net->clone());
          c.q = std::make_unique<quant::QuantizedNetwork>(*c.net, pc);
          c.q->calibrate(b.calibration);
          c.q->freeze_inference();
        });
        c.span = std::string("quant.frozen.") + kNets[i].key + "." + precision_key(pc);
        configs_.push_back(std::move(c));
      }
      bases_.push_back(std::move(b));
    }
  }

  void reference(Checks& checks) override {
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      ScopedGlobalThreads one(1);
      for (Config& c : configs_)
        for (const Tensor& x : bases_[c.base].inputs) c.ref.push_back(crc_of(c.q->forward(x)));
    }
    // Native configs against the NFU oracle, word for word. The oracle
    // is built from an unfrozen twin (same masters, same calibration
    // batch, so the same formats) because building it runs a forward
    // and restores masters.
    double energy = 0.0;
    for (std::size_t k = 0; k < configs_.size(); ++k) {
      Config& c = configs_[k];
      const Base& b = bases_[c.base];
      energy += exp::inference_energy_uj(*b.net, b.sample, c.precision);
      if (!c.q->native_int_active()) continue;
      ++native_;
      nn::Network twin = b.net->clone();
      quant::QuantizedNetwork tq(twin, c.precision);
      tq.calibrate(b.calibration);
      const hw::NfuSimulator sim(twin, tq, b.sample);
      const Tensor two = uniform_batch(b.sample, 2, mix(seed_, 4, k));
      checks.expect(same_values(sim.forward(two), c.q->forward(two)),
                    "native int forward vs NFU oracle", static_cast<std::int64_t>(k));
    }
    energy_ = energy / static_cast<double>(configs_.size());
  }

  std::int64_t op(Checks& checks, std::vector<double>& part_ms) override {
    SpanScope round(tracer_, "round");
    const std::size_t p = round_++ % bases_.front().inputs.size();
    for (std::size_t k = 0; k < configs_.size(); ++k) {
      Config& c = configs_[k];
      Tensor out;
      {
        SpanScope span(tracer_, c.span, static_cast<std::int64_t>(k));
        time_part(part_ms, [&] { out = c.q->forward(bases_[c.base].inputs[p]); });
      }
      checks.expect(crc_of(out) == c.ref[p], "frozen forward CRC", static_cast<std::int64_t>(k));
    }
    return static_cast<std::int64_t>(configs_.size()) * sz_.batch;
  }

  double energy_uj_per_item() const override { return energy_; }

  void add_details(json::Value& d) const override {
    d.set("native_configs", json::Value(native_));
    d.set("configs", json::Value(static_cast<std::int64_t>(configs_.size())));
  }

 private:
  struct Base {
    Shape sample;
    std::unique_ptr<nn::Network> net;  // unquantized masters
    Tensor calibration;
    std::vector<Tensor> inputs;
  };
  struct Config {
    std::size_t base = 0;
    quant::PrecisionConfig precision;
    std::unique_ptr<nn::Network> net;
    std::unique_ptr<quant::QuantizedNetwork> q;
    std::vector<std::uint32_t> ref;
    std::string span;
  };
  std::uint64_t seed_;
  Sizes sz_;
  std::vector<Base> bases_;
  std::vector<Config> configs_;
  std::size_t round_ = 0;
  std::int64_t native_ = 0;
  double energy_ = 0.0;
};

// Closed loop: an op is one exp::run_precision_sweep over the seven
// paper precisions (float train, then QAT + evaluation per precision).
class SweepQat final : public Workload {
 public:
  SweepQat(const Options& o, const Sizes& sz, Tracer& t)
      : Workload(t), spec_(sweep_spec(sz, o.seed)) {}

  // What a user builds before sweeping: the spec's data and network.
  void setup(std::vector<double>& part_ms) override {
    time_part(part_ms, [&] {
      split_ = data::make_dataset(spec_.dataset, spec_.data);
      nn::ZooConfig zc;
      zc.channel_scale = spec_.channel_scale;
      zc.init_seed = spec_.seed;
      net_ = nn::make_network(spec_.network, zc);
    });
  }

  void reference(Checks& checks) override {
    checks.expect(split_.train.size() == spec_.data.num_train &&
                      split_.test.size() == spec_.data.num_test &&
                      net_->num_layers() > 0,
                  "sweep data and network");
  }

  // The parts are the sweep's points, each timed up to its after_point
  // call; the first also holds data synthesis and float training. With
  // one pool thread the points run, and report, in order.
  std::int64_t op(Checks& checks, std::vector<double>& part_ms) override {
    exp::SweepOptions options;
    double last_us = now_us();
    options.after_point = [&](std::size_t) {
      const double t = now_us();
      part_ms.push_back((t - last_us) / 1e3);
      last_us = t;
    };
    exp::SweepResult r;
    {
      SpanScope span(tracer_, "exp.run_precision_sweep");
      r = exp::run_precision_sweep(spec_, quant::paper_precisions(), 0.0, options);
    }
    std::vector<double> acc;
    double energy = 0.0;
    for (std::size_t k = 0; k < r.points.size(); ++k) {
      const exp::PrecisionResult& p = r.points[k];
      checks.expect(!p.degraded && std::isfinite(p.accuracy), "sweep point finite",
                    static_cast<std::int64_t>(k));
      if (p.precision.is_float())
        checks.expect(p.converged, "float baseline converged", static_cast<std::int64_t>(k));
      acc.push_back(p.accuracy);
      energy += p.energy_uj;
    }
    // The sweep is deterministic at any thread count: every op must
    // reproduce the first op's accuracies exactly.
    if (ref_acc_.empty()) ref_acc_ = acc;
    checks.expect(acc == ref_acc_, "sweep reproduces its accuracies");
    energy_ = r.points.empty() ? 0.0 : energy / static_cast<double>(r.points.size());
    acc_pct_ = mean(acc);
    const std::int64_t quantized = static_cast<std::int64_t>(r.points.size()) - 1;
    return spec_.data.num_train * (spec_.float_train.epochs + quantized * spec_.qat_train.epochs) +
           spec_.data.num_test * static_cast<std::int64_t>(r.points.size());
  }

  double energy_uj_per_item() const override { return energy_; }

  void add_details(json::Value& d) const override {
    d.set("sweep_acc_pct", json::Value(acc_pct_));
    json::Value pts = json::Value::array();
    for (double a : ref_acc_) pts.push_back(json::Value(a));
    d.set("point_acc_pct", std::move(pts));
  }

 private:
  exp::ExperimentSpec spec_;
  data::Split split_;
  std::unique_ptr<nn::Network> net_;
  std::vector<double> ref_acc_;
  double energy_ = 0.0;
  double acc_pct_ = 0.0;
};

// Closed loop of wall-clock replays of one open-loop arrival trace
// through serve::Server (arrivals are virtual time).
class ServeReplay final : public Workload {
 public:
  ServeReplay(const Options& o, const Sizes& sz, Tracer& t) : Workload(t), seed_(o.seed), sz_(sz) {}

  void setup(std::vector<double>& part_ms) override {
    time_part(part_ms, [&] { s_ = std::make_unique<ServeSetup>(sz_, seed_, tracer_); });
  }

  void reference(Checks&) override {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    ScopedGlobalThreads one(1);
    serve::Server server(*s_->pool, s_->config);
    ref_digest_ = server.run_trace(s_->trace).digest();
  }

  std::int64_t op(Checks& checks, std::vector<double>& part_ms) override {
    serve::ServeResult r;
    {
      SpanScope span(tracer_, "serve.run_trace");
      time_part(part_ms, [&] {
        serve::Server server(*s_->pool, s_->config);
        r = server.run_trace(s_->trace);
      });
    }
    checks.expect(r.digest() == ref_digest_, "replay digest");
    checks.expect(serve::make_slo_summary(r, s_->tiers).conserved, "SLO conservation");
    const serve::ServeStats& st = r.stats;
    energy_ = st.served == 0 ? 0.0 : st.total_energy_uj / static_cast<double>(st.served);
    in_deadline_ = static_cast<double>(st.served_within_deadline) / static_cast<double>(st.offered);
    served_ = st.served;
    return st.offered;
  }

  double energy_uj_per_item() const override { return energy_; }

  void add_details(json::Value& d) const override {
    d.set("in_deadline_frac", json::Value(in_deadline_));
    d.set("uj_per_req", json::Value(energy_));
    d.set("served", json::Value(served_));
    d.set("offered", json::Value(static_cast<std::int64_t>(s_->trace.requests.size())));
  }

 private:
  std::uint64_t seed_;
  Sizes sz_;
  std::unique_ptr<ServeSetup> s_;
  std::uint32_t ref_digest_ = 0;
  double energy_ = 0.0;
  double in_deadline_ = 0.0;
  std::int64_t served_ = 0;
};

const char* const kWorkloads[] = {"infer_float", "infer_frozen", "sweep_qat", "serve_replay"};

std::unique_ptr<Workload> make_workload(const Options& o, const Sizes& sz, Tracer& t) {
  if (o.workload == "infer_float") return std::make_unique<InferFloat>(o, sz, t);
  if (o.workload == "infer_frozen") return std::make_unique<InferFrozen>(o, sz, t);
  if (o.workload == "sweep_qat") return std::make_unique<SweepQat>(o, sz, t);
  if (o.workload == "serve_replay") return std::make_unique<ServeReplay>(o, sz, t);
  return nullptr;
}

struct Loop {
  std::vector<double> op_ms;
  PartTimes parts;
  std::int64_t items = 0;
};

Loop run_loop(Workload& w, Checks& checks, double seconds, int min_ops) {
  Loop l;
  const double start = now_us();
  while (static_cast<int>(l.op_ms.size()) < min_ops || now_us() - start < seconds * 1e6) {
    std::vector<double> part_ms;
    const double t0 = now_us();
    l.items += w.op(checks, part_ms);
    l.op_ms.push_back((now_us() - t0) / 1e3);
    l.parts.add(part_ms);
  }
  return l;
}

// ---------------------------------------------------------------------
// Per-layer probes (--trace 1). Each measures one layer of the library
// from outside, through its public calls, inside spans.

const char* kind_group(const std::string& kind) {
  if (kind == "conv") return "conv";
  if (kind == "inner_product") return "ip";
  if (kind == "pool_max" || kind == "pool_avg") return "pool";
  if (kind == "relu" || kind == "sigmoid" || kind == "tanh") return "act";
  return "other";
}

json::Value shape_json(const Shape& s) {
  json::Value v = json::Value::array();
  for (std::int64_t d : s.dims()) v.push_back(json::Value(d));
  return v;
}

class Probes {
 public:
  Probes(const Options& o, const Sizes& sz, const Machine& m, Tracer& t,
         std::vector<Metric>& out)
      : seed_(o.seed), sz_(sz), machine_(m), tracer_(t), out_(out) {}

  void run_all() {
    nn_layers();
    frozen();
    fake_quant_overhead();
    train_steps();
    sweep_parts();
    serve_parts();
  }

  json::Value rows() const { return rows_; }

 private:
  void put(std::string name, double value, std::string unit) {
    out_.push_back({std::move(name), value, std::move(unit)});
  }

  std::vector<double> repeat(const std::string& name, std::int64_t arg,
                             const std::function<void()>& fn) {
    fn();  // warm-up
    std::vector<double> ms;
    for (int r = 0; r < sz_.probe_reps; ++r) ms.push_back(timed_ms(tracer_, name, arg, fn));
    return ms;
  }

  // Float Layer::forward per layer index (batch 8, full-scale nets) with
  // MACs, GOP/s, share of the FMA peak, the roofline bound and the
  // hw/schedule cycles and modeled energy of the same layer.
  void nn_layers() {
    for (std::size_t i = 0; i < std::size(kNets); ++i) {
      const std::string key = kNets[i].key;
      const Shape sample = nn::input_shape_for(kNets[i].zoo);
      auto net = nn::make_network(kNets[i].zoo, {sz_.zoo_scale, mix(seed_, 1, i)});
      net->set_training_mode(false);
      const Tensor x0 = uniform_batch(sample, sz_.batch, mix(seed_, 2, i * 16));
      const std::vector<nn::LayerDesc> descs = net->describe(sample);
      const hw::ScheduleResult sf = exp::schedule_for(*net, sample, quant::float_config());
      const hw::ScheduleResult s8 = exp::schedule_for(*net, sample, quant::fixed_config(8, 8));
      const double ef = exp::inference_energy_uj(*net, sample, quant::float_config());
      const double e8 = exp::inference_energy_uj(*net, sample, quant::fixed_config(8, 8));

      net->forward(x0);
      const std::size_t layers = net->num_layers();
      std::vector<std::vector<double>> ms(layers);
      for (int r = 0; r < sz_.probe_reps; ++r) {
        SpanScope fwd(tracer_, "nn." + key + ".forward", static_cast<std::int64_t>(i));
        Tensor x = x0;
        for (std::size_t l = 0; l < layers; ++l)
          ms[l].push_back(timed_ms(tracer_, "nn." + key + "." + kind_group(descs[l].kind),
                                   static_cast<std::int64_t>(l),
                                   [&] { x = net->layer(l).forward(x); }));
      }

      // Share of the modeled per-image energy spent in one layer: power is
      // constant, so energy splits like cycles.
      const auto share = [](const hw::ScheduleResult& s, std::size_t l) {
        return s.total_cycles > 0 ? static_cast<double>(s.layers.at(l).cycles) /
                                        static_cast<double>(s.total_cycles)
                                  : 0.0;
      };
      std::map<std::string, double> kind_ms, kind_ops;
      for (std::size_t l = 0; l < layers; ++l) {
        const nn::LayerDesc& d = descs[l];
        const std::string group = kind_group(d.kind);
        const double med_ms = median(ms[l]);
        const double ops = 2.0 * static_cast<double>(d.macs * sz_.batch);
        // Computed, not measured: float32 input, output and parameters.
        const double bytes = 4.0 * static_cast<double>(sz_.batch * (d.in.count() + d.out.count()) +
                                                       d.weights + d.biases);
        const double gops = ops / (med_ms * 1e-3) / 1e9;
        // Roofline lower bound on the layer's time: the slower of its
        // compute at the FMA peak and its bytes at the copy bandwidth.
        const double roof_ns = std::max(ops / machine_.fma_peak_gflops, bytes / machine_.copy_gbps);
        kind_ms[group] += med_ms;
        kind_ops[group] += ops;

        json::Value row = json::Value::object();
        row.set("net", json::Value(key));
        row.set("index", json::Value(static_cast<std::int64_t>(l)));
        row.set("name", json::Value(d.name));
        row.set("kind", json::Value(d.kind));
        row.set("in", shape_json(d.in));
        row.set("out", shape_json(d.out));
        row.set("batch", json::Value(sz_.batch));
        row.set("macs_per_image", json::Value(d.macs));
        row.set("median_ns", json::Value(med_ms * 1e6));
        row.set("gops", json::Value(gops));
        row.set("pct_fma_peak", json::Value(100.0 * gops / machine_.fma_peak_gflops));
        row.set("computed_bytes", json::Value(bytes));
        row.set("roofline_ns_computed", json::Value(roof_ns));
        row.set("pct_of_roofline", json::Value(100.0 * roof_ns / (med_ms * 1e6)));
        row.set("hw_cycles_float", json::Value(sf.layers.at(l).cycles));
        row.set("hw_energy_uj_float", json::Value(ef * share(sf, l)));
        row.set("hw_energy_share_float", json::Value(share(sf, l)));
        row.set("hw_cycles_fixed8", json::Value(s8.layers.at(l).cycles));
        row.set("hw_energy_uj_fixed8", json::Value(e8 * share(s8, l)));
        row.set("hw_energy_share_fixed8", json::Value(share(s8, l)));
        rows_.push_back(std::move(row));
      }
      for (const char* g : {"conv", "ip", "pool", "act"})
        put("nn." + key + "." + g + "_ms", kind_ms[g], "ms");
      for (const char* g : {"conv", "ip"})
        put("tensor." + key + "." + g + "_gops", kind_ops[g] / (kind_ms[g] * 1e-3) / 1e9, "GOP/s");
    }
  }

  // Frozen QuantizedNetwork::forward per (net, precision), plus the cost
  // of calibrate, freeze_inference and the NFU simulator.
  void frozen() {
    const auto precisions = frozen_precisions();
    std::map<std::string, double> per_precision_ms;
    double calibrate_ms = 0.0, freeze_ms = 0.0, nfu_ms = 0.0;
    std::int64_t nfu_images = 0, native = 0, configs = 0;
    for (std::size_t i = 0; i < std::size(kNets); ++i) {
      const std::string key = kNets[i].key;
      const Shape sample = nn::input_shape_for(kNets[i].zoo);
      auto base = nn::make_network(kNets[i].zoo, {sz_.zoo_scale, mix(seed_, 1, i)});
      const Tensor calib = uniform_batch(sample, sz_.batch, mix(seed_, 3, i));
      const Tensor x = uniform_batch(sample, sz_.batch, mix(seed_, 2, i * 16));
      const Tensor one = uniform_batch(sample, 1, mix(seed_, 4, i));
      for (std::size_t k = 0; k < precisions.size(); ++k) {
        const std::string pkey = precision_key(precisions[k]);
        nn::Network net = base->clone();
        quant::QuantizedNetwork q(net, precisions[k]);
        calibrate_ms += timed_ms(tracer_, "quant.calibrate", static_cast<std::int64_t>(k),
                                 [&] { q.calibrate(calib); });
        if (pkey == "fixed8") {
          const hw::NfuSimulator sim(net, q, sample);
          nfu_ms += timed_ms(tracer_, "hw.nfu_sim.forward", static_cast<std::int64_t>(i),
                             [&] { sim.forward(one); });
          nfu_images += one.shape()[0];
        }
        freeze_ms += timed_ms(tracer_, "quant.freeze_inference", static_cast<std::int64_t>(k),
                              [&] { q.freeze_inference(); });
        native += q.native_int_active() ? 1 : 0;
        ++configs;
        const double med = median(repeat("quant.frozen." + key + "." + pkey,
                                         static_cast<std::int64_t>(k), [&] { q.forward(x); }));
        per_precision_ms[pkey] += med;
        if (pkey == "fixed8" || pkey == "fixed16")
          put("quant.frozen." + key + "." + pkey + "_ms", med, "ms");
      }
    }
    for (const auto& pc : precisions) {
      const std::string pkey = precision_key(pc);
      put("quant.frozen." + pkey + ".img_per_s",
          static_cast<double>(std::size(kNets)) * static_cast<double>(sz_.batch) /
              (per_precision_ms[pkey] * 1e-3),
          "img/s");
    }
    put("quant.native_share", static_cast<double>(native) / static_cast<double>(configs), "ratio");
    put("quant.calibrate_s", calibrate_ms * 1e-3, "s");
    put("quant.freeze_s", freeze_ms * 1e-3, "s");
    put("hw.nfu_sim.img_per_s", static_cast<double>(nfu_images) / (nfu_ms * 1e-3), "img/s");
  }

  // Non-frozen (fake-quant, per-call parameter re-quantization) forward
  // time over float forward time (batch 64) on the sweep networks.
  void fake_quant_overhead() {
    const std::pair<const char*, double> nets[] = {{"lenet", 0.5}, {"convnet", 0.4}};
    double float_ms = 0.0;
    std::map<std::string, double> fq_ms;
    std::vector<std::string> order;
    for (std::size_t i = 0; i < std::size(nets); ++i) {
      const Shape sample = nn::input_shape_for(nets[i].first);
      auto net = nn::make_network(nets[i].first, {nets[i].second, mix(seed_, 8, i)});
      net->set_training_mode(false);
      const Tensor x = uniform_batch(sample, sz_.fq_batch, mix(seed_, 9, i));
      float_ms += median(repeat("quant.fq.float", static_cast<std::int64_t>(i),
                                [&] { net->forward(x); }));
      for (const quant::PrecisionConfig& pc : quant::paper_precisions()) {
        if (pc.is_float()) continue;
        const std::string pkey = precision_key(pc);
        if (i == 0) order.push_back(pkey);
        quant::QuantizedNetwork q(*net, pc);
        q.calibrate(x);
        fq_ms[pkey] += median(repeat("quant.fq." + pkey, static_cast<std::int64_t>(i),
                                     [&] { q.forward(x); }));
        q.restore_masters();
      }
    }
    for (const std::string& pkey : order)
      put("quant.fq." + pkey + ".overhead", fq_ms[pkey] / float_ms, "ratio");
  }

  // Training-mode Network::forward and backward (batch 32) on the sweep
  // networks.
  void train_steps() {
    const std::pair<const char*, double> nets[] = {{"lenet", 0.5}, {"convnet", 0.4}};
    for (std::size_t i = 0; i < std::size(nets); ++i) {
      const std::string key = nets[i].first;
      const Shape sample = nn::input_shape_for(key);
      auto net = nn::make_network(key, {nets[i].second, mix(seed_, 10, i)});
      net->set_training_mode(true);
      const Tensor x = uniform_batch(sample, sz_.train_batch, mix(seed_, 11, i));
      std::vector<int> labels(static_cast<std::size_t>(sz_.train_batch));
      for (std::size_t n = 0; n < labels.size(); ++n) labels[n] = static_cast<int>(n % 10);
      std::vector<double> fwd, bwd;
      for (int r = 0; r <= sz_.probe_reps; ++r) {
        Tensor out;
        const double f = timed_ms(tracer_, "train." + key + ".fwd", r, [&] { out = net->forward(x); });
        const nn::LossResult loss = nn::softmax_cross_entropy(out, labels);
        const double b = timed_ms(tracer_, "train." + key + ".bwd", r,
                                  [&] { net->backward(loss.grad_logits); });
        if (r == 0) continue;  // warm-up
        fwd.push_back(f);
        bwd.push_back(b);
      }
      put("train." + key + ".fwd_ms", median(fwd), "ms");
      put("train." + key + ".bwd_ms", median(bwd), "ms");
    }
  }

  // sweep_qat's sweep decomposed into its public calls, run serially:
  // data synthesis, float training + evaluation, the hw schedule, and
  // one QAT fine-tune + evaluation per quantized precision.
  void sweep_parts() {
    const exp::ExperimentSpec spec = sweep_spec(sz_, seed_);
    const Shape sample = nn::input_shape_for(spec.network);
    data::Split split;
    put("data.gen_s",
        timed_ms(tracer_, "data.make_dataset", -1,
                 [&] { split = data::make_dataset(spec.dataset, spec.data); }) * 1e-3,
        "s");
    nn::ZooConfig zc;
    zc.channel_scale = spec.channel_scale;
    zc.init_seed = spec.seed;
    auto float_net = nn::make_network(spec.network, zc);
    put("exp.float_train_s", timed_ms(tracer_, "exp.float_train", -1, [&] {
          nn::train(*float_net, split.train, spec.float_train);
          nn::evaluate(*float_net, split.test);
        }) * 1e-3,
        "s");
    std::vector<double> schedule_us;
    for (const quant::PrecisionConfig& pc : quant::paper_precisions())
      schedule_us.push_back(1e3 * timed_ms(tracer_, "hw.schedule_for", -1, [&] {
                              exp::schedule_for(*float_net, sample, pc);
                            }));
    put("hw.schedule_us", median(schedule_us), "us");
    std::int64_t k = 0;
    for (const quant::PrecisionConfig& pc : quant::paper_precisions()) {
      if (pc.is_float()) continue;
      const double ms = timed_ms(tracer_, "exp.point", k++, [&] {
        auto net = nn::make_network(spec.network, zc);
        net->copy_params_from(*float_net);
        quant::QuantizedNetwork q(*net, pc);
        quant::QatConfig qat;
        qat.train = spec.qat_train;
        quant::qat_finetune(q, split.train, qat);
        nn::evaluate(q, split.test);
        q.restore_masters();
      });
      put("exp." + precision_key(pc) + ".point_s", ms * 1e-3, "s");
    }
  }

  // ReplicaPool::forward per tier at batch 1 and 8, then replays of the
  // serve_replay trace split into estimated forward time, payload time
  // (inside the bench's PayloadProvider) and the rest of the loop.
  void serve_parts() {
    ServeSetup s(sz_, seed_, tracer_);
    const Shape sample = s.trace.sample_shape();
    const int tiers = s.pool->num_tiers();
    std::vector<double> b1(static_cast<std::size_t>(tiers)), b8(static_cast<std::size_t>(tiers));
    for (int t = 0; t < tiers; ++t) {
      const std::string name = s.pool->tier(t).name;
      const Tensor x1 = uniform_batch(sample, 1, mix(seed_, 12, static_cast<std::uint64_t>(t)));
      const Tensor x8 = uniform_batch(sample, 8, mix(seed_, 13, static_cast<std::uint64_t>(t)));
      b1[static_cast<std::size_t>(t)] =
          median(repeat("serve." + name + ".fwd_b1", t, [&] { s.pool->forward(t, 0, x1); }));
      b8[static_cast<std::size_t>(t)] =
          median(repeat("serve." + name + ".fwd_b8", t, [&] { s.pool->forward(t, 0, x8); }));
      put("serve." + name + ".fwd_b1_ms", b1[static_cast<std::size_t>(t)], "ms");
      put("serve." + name + ".fwd_b8_ms", b8[static_cast<std::size_t>(t)], "ms");
    }
    const auto fwd_ms = [&](int t, std::size_t n) {
      const auto ti = static_cast<std::size_t>(t);
      return b1[ti] + (b8[ti] - b1[ti]) * (static_cast<double>(n) - 1.0) / 7.0;
    };
    const double offered = static_cast<double>(s.trace.requests.size());
    std::vector<double> share, loop_us, payload_us;
    serve::ServeResult last;
    for (int r = 0; r <= sz_.probe_reps; ++r) {
      serve::Server server(*s.pool, s.config);
      const int id = tracer_.open("serve.run_trace", r);
      last = server.run_trace(s.trace);
      tracer_.close(id);
      if (r == 0) continue;  // warm-up
      const double wall = tracer_.duration_ms(id);
      const double payload = wall - tracer_.self_ms(id);
      double fwd = 0.0;
      for (const serve::BatchRecord& b : last.batches) fwd += fwd_ms(b.tier, b.request_ids.size());
      share.push_back(fwd / wall);
      loop_us.push_back(1e3 * (wall - fwd - payload) / offered);
      payload_us.push_back(1e3 * payload / offered);
    }
    put("serve.fwd_share", median(share), "ratio");
    put("serve.loop_us_per_req", median(loop_us), "us");
    put("serve.payload_us_per_req", median(payload_us), "us");
    std::size_t rows = 0;
    for (const serve::BatchRecord& b : last.batches) rows += b.request_ids.size();
    put("serve.batch_mean",
        last.batches.empty() ? 0.0 : static_cast<double>(rows) / static_cast<double>(last.batches.size()),
        "count");
    put("serve.p99_ticks", last.stats.p99_latency_ticks, "ticks");
    for (int t = 0; t < tiers; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const double served = ti < last.stats.served_per_tier.size()
                                ? static_cast<double>(last.stats.served_per_tier[ti])
                                : 0.0;
      put("serve." + s.pool->tier(t).name + ".served_share",
          last.stats.served == 0 ? 0.0 : served / static_cast<double>(last.stats.served), "ratio");
    }
  }

  std::uint64_t seed_;
  Sizes sz_;
  const Machine& machine_;
  Tracer& tracer_;
  std::vector<Metric>& out_;
  json::Value rows_ = json::Value::array();
};

// ---------------------------------------------------------------------

json::Value metrics_json(const std::vector<Metric>& metrics) {
  json::Value m = json::Value::object();
  for (const Metric& x : metrics) {
    json::Value v = json::Value::object();
    v.set("value", json::Value(x.value));
    v.set("unit", json::Value(x.unit));
    m.set(x.name, std::move(v));
  }
  return m;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int run(const Options& opt) {
  const Sizes sz = sizes_for(opt.smoke);
  set_log_threshold(LogLevel::kWarn);
  ThreadPool::set_global_threads(kPoolThreads);
  Machine machine;
  machine.fma_peak_gflops = measure_fma_peak_gflops();
  machine.copy_gbps = measure_copy_gbps();

  Tracer tracer;
  Checks checks;
  PartTimes setup_parts;
  int setups = 0;
  std::unique_ptr<Workload> w;
  const double setup_start = now_us();
  while (setups == 0 || (!opt.trace && setups < sz.max_setups &&
                         (setups < sz.min_setups ||
                          now_us() - setup_start < sz.setup_budget_s * 1e6))) {
    w.reset();
    w = make_workload(opt, sz, tracer);
    std::vector<double> part_ms;
    w->setup(part_ms);
    setup_parts.add(part_ms);
    ++setups;
  }
  w->reference(checks);
  std::vector<double> warm_up_parts;
  w->op(checks, warm_up_parts);

  const double seconds = opt.smoke ? 0.0 : opt.seconds;
  const Loop untraced = run_loop(*w, checks, opt.trace ? seconds / 2 : seconds, sz.min_ops);

  std::vector<Metric> metrics;
  json::Value details = json::Value::object();
  w->add_details(details);
  details.set("ops", json::Value(static_cast<std::int64_t>(untraced.op_ms.size())));
  details.set("items", json::Value(untraced.items));
  details.set("setups", json::Value(static_cast<std::int64_t>(setups)));
  details.set("setup_part_p50_ms", setup_parts.p50_json());
  // Whole-op quantiles are not metrics: a shared host's slow spells move
  // them (see PartTimes), and most workloads run too few ops for ten to
  // lie beyond a 90th percentile.
  details.set("whole_op_p50_ms", json::Value(quantile(untraced.op_ms, 0.5)));
  details.set("whole_op_p90_ms", json::Value(quantile(untraced.op_ms, 0.9)));
  json::Value op_ms = json::Value::array();
  for (double ms : untraced.op_ms) op_ms.push_back(json::Value(ms));
  details.set("op_ms", std::move(op_ms));
  details.set("part_p50_ms", untraced.parts.p50_json());
  const double op_p50_ms = untraced.parts.composed_p50_ms();
  json::Value rows;
  if (!opt.trace) {
    metrics.push_back({"setup_s", setup_parts.composed_p50_ms() * 1e-3, "s"});
    // Every op of a workload completes the same items.
    metrics.push_back({"items_per_s",
                       static_cast<double>(untraced.items) /
                           static_cast<double>(untraced.op_ms.size()) / (op_p50_ms * 1e-3),
                       "1/s"});
    metrics.push_back({"op_p50_ms", op_p50_ms, "ms"});
    metrics.push_back({"model_uj_per_item", w->energy_uj_per_item(), "uJ"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    tracer.set_enabled(true);
    const Loop traced = run_loop(*w, checks, seconds / 2, sz.min_ops);
    Probes probes(opt, sz, machine, tracer, metrics);
    probes.run_all();
    metrics.push_back({"bench.trace_overhead_pct",
                       100.0 * (traced.parts.composed_p50_ms() / op_p50_ms - 1.0), "%"});
    rows = probes.rows();
  }

  for (const Metric& m : metrics)
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  json::Value result = json::Value::object();
  result.set("correct", json::Value(checks.failed == 0 && checks.attempted > 0));
  result.set("attempted", json::Value(checks.attempted));
  result.set("failed", json::Value(checks.failed));
  result.set("metrics", metrics_json(metrics));

  json::Value doc = json::Value::object();
  doc.set("workload", json::Value(opt.workload));
  doc.set("seed", json::Value(static_cast<std::int64_t>(opt.seed)));
  doc.set("seconds", json::Value(opt.seconds));
  doc.set("trace", json::Value(opt.trace));
  doc.set("smoke", json::Value(opt.smoke));
  doc.set("failed_frac", json::Value(checks.attempted > 0 ? static_cast<double>(checks.failed) /
                                                                static_cast<double>(checks.attempted)
                                                          : 0.0));
  doc.set("result", result);
  doc.set("details", std::move(details));
  doc.set("machine", machine.to_json());
  std::filesystem::create_directories(opt.out);
  const std::string stem = opt.out + "/" + opt.workload + ".s" + std::to_string(opt.seed);
  if (opt.trace) {
    doc.set("layer_rows", std::move(rows));
    write_file_atomic(stem + ".layers.json", doc.dump());
    write_file_atomic(stem + ".trace.json", tracer.chrome_trace().dump());
  } else {
    write_file_atomic(stem + ".e2e.json", doc.dump());
  }
  std::cout << result.dump() << std::endl;
  return 0;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
               " [--out <dir>] [--smoke]\nworkloads:";
  for (const char* w : kWorkloads) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 1;
}

}  // namespace
}  // namespace qnn::qb

int main(int argc, char** argv) {
  using namespace qnn::qb;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage(argv[0]);
        opt.trace = v == "1";
      } else if (arg == "--out" && has_value) {
        opt.out = argv[++i];
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
          std::end(kWorkloads) ||
      !(opt.seconds >= 0.0))
    return usage(argv[0]);
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "qnn_bench: refusing to measure: " << refusal << " (build type "
              << QNN_BENCH_BUILD_TYPE << ", flags \"" << QNN_BENCH_CXX_FLAGS << "\")\n";
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "qnn_bench: error: " << e.what() << '\n';
    return 1;
  }
}
