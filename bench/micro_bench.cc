// Google-benchmark microbenchmarks of the performance-critical kernels:
// GEMM, im2col, quantizer application, full network forward, range
// analysis, the (pure-arithmetic) hardware model evaluation, and the
// CRC-32 paths behind the serve corruption audit.
//
// After the google-benchmark suite runs, main() times a few headline
// workloads serially (1 thread) and on the full pool and writes the
// comparison to BENCH_micro.json in the working directory
// (--benchmark_list_tests only lists the suite and exits). Each phase's
// per-rep wall times also feed "phase.<name>.{serial,threads}_us"
// histograms in the metrics registry, summarized in the JSON under
// "phases". The "int_datapath" rows time the native integer forward and
// its word steps, the "float_datapath" rows the steps around the float
// GEMM, each at the scalar and the vector level (report-only). Run
// with --trace/--report (bench::Session) for a
// chrome://tracing profile and a RunReport.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "data/synthetic.h"
#include "exp/sweep.h"
#include "nn/inner_product.h"
#include "nn/pool.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "obs/metrics.h"
#include "protect/protected_network.h"
#include "quant/acc_bound.h"
#include "quant/int_datapath.h"
#include "quant/int_inference.h"
#include "quant/qnetwork.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/int_gemm.h"
#include "tensor/microkernel.h"
#include "util/crc32.h"
#include "util/env.h"
#include "util/fileio.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n}), c(Shape{n, n});
  a.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  for (auto _ : state) {
    gemm({.m = n, .n = n, .k = n, .a = a.data(), .b = b.data(),
          .c = c.data()});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Same GEMM pinned to each dispatch level — the vector-path speedup at
// a glance (BM_Gemm above runs whatever QNN_SIMD/CPUID resolves to).
void BM_GemmAvx2(benchmark::State& state) {
  if (!simd_supports(SimdLevel::kAvx2)) {
    state.SkipWithError("no AVX2 on this machine");
    return;
  }
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n}), c(Shape{n, n});
  a.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  ScopedSimdLevel force(SimdLevel::kAvx2);
  for (auto _ : state) {
    gemm({.m = n, .n = n, .k = n, .a = a.data(), .b = b.data(),
          .c = c.data()});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmAvx2)->Arg(256);

void BM_GemmScalar(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n}), c(Shape{n, n});
  a.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  ScopedSimdLevel force(SimdLevel::kScalar);
  for (auto _ : state) {
    gemm({.m = n, .n = n, .k = n, .a = a.data(), .b = b.data(),
          .c = c.data()});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmScalar)->Arg(256);

// C[n,n] (int64) = A * B^T the way the engine runs an inner product:
// B's words bounded as weights against A's full word range, the tier,
// int16 block and (exact-i64) scalar fallback from quant/acc_bound,
// both operands packed, then int_gemm_packed.
template <typename WordT>
void proven_int_gemm(std::int64_t n, const WordT* a, const WordT* b,
                     std::int64_t* c) {
  constexpr bool kS8 = sizeof(WordT) == 1;
  constexpr int kBits = 8 * static_cast<int>(sizeof(WordT));
  const quant::AccBound bound =
      quant::bound_accumulator(n, n, b, FixedPointFormat(kBits, 0), nullptr);
  std::string reason;
  const quant::IntTier tier = quant::choose_int_tier(kBits, bound, &reason);
  std::vector<WordT> pa(static_cast<std::size_t>(n * int_row_words<WordT>(n)));
  std::vector<WordT> pb(
      static_cast<std::size_t>(int_panels(n) * int_panel_words<WordT>(n)));
  pack_int_rows(n, n, a, n, kS8, pa.data());
  pack_int_panels(n, n, b, n, false, pb.data());
  std::vector<std::int64_t> col_add(kS8 ? static_cast<std::size_t>(n) : 0);
  for (std::size_t j = 0; j < col_add.size(); ++j)
    for (std::int64_t p = 0; p < n; ++p)
      col_add[j] -= 128 * b[static_cast<std::int64_t>(j) * n + p];
  IntTileJob job;
  job.body = int_body<WordT>;
  job.a_unsigned = true;
  job.m = n;
  job.n = n;
  job.groups = int_groups<WordT>(n);
  job.k_block = std::max<std::int64_t>(bound.k_block, 1);
  job.a = pa.data();
  job.b = pb.data();
  job.epi.col_add = kS8 ? col_add.data() : nullptr;
  job.epi.out = c;
  job.epi.ldo = n;
  int_gemm_packed(tier == quant::IntTier::kExact64 ? SimdLevel::kScalar
                                                   : active_simd_level(),
                  job);
}

// Native integer GEMM (dot-product layout), int8 and int16 words, at the
// active level or a forced one.
template <typename WordT>
void int_gemm_bench(benchmark::State& state,
                    std::optional<SimdLevel> level = std::nullopt) {
  if (level.has_value() && !simd_supports(*level)) {
    state.SkipWithError("SIMD level not supported on this machine");
    return;
  }
  std::optional<ScopedSimdLevel> force;
  if (level.has_value()) force.emplace(*level);
  const std::int64_t n = state.range(0);
  std::vector<WordT> a(static_cast<std::size_t>(n * n), WordT{3});
  std::vector<WordT> b(static_cast<std::size_t>(n * n), WordT{-5});
  std::vector<std::int64_t> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    proven_int_gemm(n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
void BM_IntGemm8(benchmark::State& state) { int_gemm_bench<std::int8_t>(state); }
void BM_IntGemm16(benchmark::State& state) {
  int_gemm_bench<std::int16_t>(state);
}
BENCHMARK(BM_IntGemm8)->Arg(256);
BENCHMARK(BM_IntGemm16)->Arg(256);

// Report-only: the same GEMMs pinned to the AVX-512 VNNI tier.
void BM_IntGemm8Avx512(benchmark::State& state) {
  int_gemm_bench<std::int8_t>(state, SimdLevel::kAvx512);
}
void BM_IntGemm16Avx512(benchmark::State& state) {
  int_gemm_bench<std::int16_t>(state, SimdLevel::kAvx512);
}
BENCHMARK(BM_IntGemm8Avx512)->Arg(256);
BENCHMARK(BM_IntGemm16Avx512)->Arg(256);

void BM_GemmTallK(benchmark::State& state) {
  // Inner-product forward shape: batch rows M too small to fill the
  // pool, reduction K spanning many chunks (DESIGN.md §9). B is stored
  // [N, K] as InnerProduct stores weights, so the shape runs as the
  // transposed product C^T = B * A^T; the thread's gemm workspace keeps
  // A^T, C^T and the chunk partials across iterations, as in the layer.
  const std::int64_t m = 8, n = 512, k = state.range(0);
  Rng rng(7);
  Tensor a(Shape{m, k}), b(Shape{n, k}), c(Shape{m, n});
  a.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  for (auto _ : state) {
    gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
          .trans_b = true, .c = c.data()});
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmTallK)->Arg(2048)->Arg(8192);

void BM_Im2col(benchmark::State& state) {
  ConvGeometry g;
  g.in_c = 32;
  g.in_h = g.in_w = 32;
  g.kernel_h = g.kernel_w = 5;
  g.pad_h = g.pad_w = 2;
  Rng rng(2);
  Tensor img(Shape{1, g.in_c, g.in_h, g.in_w});
  img.fill_uniform(rng, -1, 1);
  std::vector<float> cols(
      static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  for (auto _ : state) {
    im2col(g, img.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col);

void BM_QuantizeFixed(benchmark::State& state) {
  quant::FixedQuantizer q(static_cast<int>(state.range(0)));
  q.calibrate(1.0);
  Rng rng(3);
  Tensor t(Shape{1 << 16});
  t.fill_uniform(rng, -1, 1);
  for (auto _ : state) {
    Tensor copy = t;
    q.apply(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * t.count());
}
BENCHMARK(BM_QuantizeFixed)->Arg(4)->Arg(8)->Arg(16);

void BM_QuantizePow2(benchmark::State& state) {
  quant::Pow2Quantizer q(6);
  q.calibrate(1.0);
  Rng rng(4);
  Tensor t(Shape{1 << 16});
  t.fill_uniform(rng, -1, 1);
  for (auto _ : state) {
    Tensor copy = t;
    q.apply(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * t.count());
}
BENCHMARK(BM_QuantizePow2);

void BM_LenetForward(benchmark::State& state) {
  auto net = nn::make_lenet();
  Rng rng(5);
  Tensor batch(Shape{8, 1, 28, 28});
  batch.fill_uniform(rng, 0, 1);
  for (auto _ : state) {
    Tensor out = net->forward(batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_LenetForward);

void BM_QuantizedLenetForward(benchmark::State& state) {
  auto net = nn::make_lenet();
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  Rng rng(6);
  Tensor batch(Shape{8, 1, 28, 28});
  batch.fill_uniform(rng, 0, 1);
  qnet.calibrate(batch);
  for (auto _ : state) {
    Tensor out = qnet.forward(batch);
    benchmark::DoNotOptimize(out.data());
  }
  qnet.restore_masters();
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_QuantizedLenetForward);

void BM_AcceleratorModel(benchmark::State& state) {
  for (auto _ : state) {
    hw::AcceleratorConfig cfg;
    cfg.precision = quant::fixed_config(16, 16);
    hw::Accelerator acc(cfg);
    benchmark::DoNotOptimize(acc.area_mm2());
  }
}
BENCHMARK(BM_AcceleratorModel);

void BM_ScheduleAlexPlusPlus(benchmark::State& state) {
  auto net = nn::make_alex_plus_plus();
  const auto descs = net->describe(Shape{1, 3, 32, 32});
  hw::AcceleratorConfig cfg;
  cfg.precision = quant::fixed_config(16, 16);
  const hw::Accelerator acc(cfg);
  for (auto _ : state) {
    auto sched = hw::schedule_network(descs, acc);
    benchmark::DoNotOptimize(sched.total_cycles);
  }
}
BENCHMARK(BM_ScheduleAlexPlusPlus);

void BM_SyntheticCifarGeneration(benchmark::State& state) {
  for (auto _ : state) {
    data::SyntheticConfig cfg;
    cfg.num_train = 64;
    cfg.num_test = 1;
    auto split = data::make_cifar_like(cfg);
    benchmark::DoNotOptimize(split.train.images.data());
  }
  state.SetItemsProcessed(state.iterations() * 65);
}
BENCHMARK(BM_SyntheticCifarGeneration);

// The serve corruption audit CRCs a replica's whole float parameter
// image per published batch: about 436 KB for LeNet at scale 0.5.
constexpr std::int64_t kServeImageBytes = 436 * 1024;

bool crc32_clmul_runs() { return std::string(crc32_kernel()) == "clmul"; }

std::vector<unsigned char> crc32_input(std::size_t size) {
  std::vector<unsigned char> buf(size);
  Rng rng(5);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  return buf;
}

// Args: buffer bytes, path (0 = table loop, 1 = carry-less-multiply fold).
void BM_Crc32(benchmark::State& state) {
  const bool fold = state.range(1) != 0;
  if (fold && !crc32_clmul_runs()) {
    state.SkipWithError("carry-less-multiply CRC not available");
    return;
  }
  const auto buf = crc32_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(fold ? crc32_clmul(buf.data(), buf.size())
                                  : crc32_table(buf.data(), buf.size()));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)
    ->ArgNames({"bytes", "clmul"})
    ->ArgsProduct({{kServeImageBytes, 4096}, {0, 1}});

// --- serial vs N-thread scaling report ---------------------------------

// Wall-time histogram bounds: 1 µs .. ~4.2 s in powers of two.
std::vector<std::int64_t> phase_bounds() {
  return obs::exponential_bounds(std::int64_t{1} << 22);
}

// Best-of-`reps` wall time of fn() in milliseconds (one warm-up call).
// Every timed rep (warm-up excluded) is also observed into `hist` so
// the report captures the rep-to-rep spread, not just the best.
template <typename F>
double best_of_ms(int reps, obs::Histogram hist, F&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    const double ms = sw.millis();
    hist.observe(static_cast<std::int64_t>(ms * 1000.0));
    best = std::min(best, ms);
  }
  return best;
}

struct ScalingRow {
  std::string name;
  // Rows large enough that parallel execution must win; --min-speedup
  // gates on these (the protected workload is dominated by ABFT
  // checksum verification, not the sharded kernels, so it reports but
  // does not gate).
  bool gated = false;
  double serial_ms = 0;
  double parallel_ms = 0;
  double speedup() const {
    return parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
  }
};

// SIMD dispatch rows (DESIGN.md §15): the same kernel timed at both
// QNN_SIMD levels, single-threaded so the ratio isolates the microkernel
// rather than the scheduler. `speedup` is baseline_ms / candidate_ms;
// gated rows must clear --min-speedup when AVX2 exists (the vector
// float path and the native int8 path must both beat scalar float, and
// the fake-quant site kernel its scalar reference loop).
struct SimdRow {
  std::string name;
  bool gated = false;
  double baseline_ms = 0;   // scalar reference (float GEMM, or fake-quant)
  double candidate_ms = 0;  // vector / native-int candidate
  double speedup() const {
    return candidate_ms > 0 ? baseline_ms / candidate_ms : 0.0;
  }
};

std::vector<SimdRow> time_simd_rows(obs::Registry& reg) {
  const std::int64_t n = 384;
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n}), c(Shape{n, n});
  a.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  std::vector<std::int8_t> a8(static_cast<std::size_t>(n * n), 3);
  std::vector<std::int8_t> b8(static_cast<std::size_t>(n * n), -5);
  std::vector<std::int16_t> a16(static_cast<std::size_t>(n * n), 3);
  std::vector<std::int16_t> b16(static_cast<std::size_t>(n * n), -5);
  std::vector<std::int64_t> ci(static_cast<std::size_t>(n * n));

  const bool avx2 = simd_supports(SimdLevel::kAvx2);
  const auto hist = [&](const std::string& name) {
    return reg.histogram("phase.simd." + name + "_us", phase_bounds());
  };
  const auto time_at = [&](SimdLevel level, const std::string& name,
                           const std::function<void()>& fn) {
    ScopedSimdLevel force(level);
    return best_of_ms(3, hist(name), fn);
  };
  const auto f32 = [&] {
    gemm({.m = n, .n = n, .k = n, .a = a.data(), .b = b.data(),
          .c = c.data()});
  };
  const double scalar_f32 = time_at(SimdLevel::kScalar, "gemm_scalar", f32);

  std::vector<SimdRow> rows;
  {
    SimdRow row{"gemm_f32_avx2_vs_scalar", avx2, scalar_f32, 0};
    if (avx2)
      row.candidate_ms = time_at(SimdLevel::kAvx2, "gemm_avx2", f32);
    rows.push_back(row);
  }
  const SimdLevel native = avx2 ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  {
    SimdRow row{"int8_gemm_vs_scalar_f32", avx2, scalar_f32, 0};
    row.candidate_ms = time_at(native, "int8_gemm", [&] {
      proven_int_gemm(n, a8.data(), b8.data(), ci.data());
    });
    rows.push_back(row);
  }
  {
    // Report-only: int16 halves the lanes, so beating scalar float is
    // not guaranteed on every core.
    SimdRow row{"int16_gemm_vs_scalar_f32", false, scalar_f32, 0};
    row.candidate_ms = time_at(native, "int16_gemm", [&] {
      proven_int_gemm(n, a16.data(), b16.data(), ci.data());
    });
    rows.push_back(row);
  }
  {
    // The fused guard-and-quantize of a fixed16 data site over 1M values,
    // at the best level against the scalar reference loop. It runs in
    // place: after the first call the values sit on the grid, and both
    // levels do the same work on them.
    quant::FixedQuantizer q(16);
    q.calibrate(4.0);
    Tensor site(Shape{1 << 20});
    site.fill_uniform(rng, -6, 6);
    quant::GuardCounters guards;
    const auto fq = [&] {
      q.apply(site.values(), &guards, active_simd_level());
    };
    SimdRow row{"fq_site_vs_scalar", avx2, 0, 0};
    row.baseline_ms = time_at(SimdLevel::kScalar, "fq_site_scalar", fq);
    row.candidate_ms = time_at(simd_support(), "fq_site", fq);
    rows.push_back(row);
  }
  if (simd_supports(SimdLevel::kAvx512)) {
    // Report-only: the AVX-512 VNNI integer tier.
    SimdRow r8{"int8_gemm_avx512_vs_scalar_f32", false, scalar_f32, 0};
    r8.candidate_ms = time_at(SimdLevel::kAvx512, "int8_gemm_avx512", [&] {
      proven_int_gemm(n, a8.data(), b8.data(), ci.data());
    });
    rows.push_back(r8);
    SimdRow r16{"int16_gemm_avx512_vs_scalar_f32", false, scalar_f32, 0};
    r16.candidate_ms = time_at(SimdLevel::kAvx512, "int16_gemm_avx512", [&] {
      proven_int_gemm(n, a16.data(), b16.data(), ci.data());
    });
    rows.push_back(r16);
  }
  return rows;
}

// CRC-32 rows: the table loop and the folding path per call, on the
// serve image and a 4 KiB buffer (clmul_us stays 0 where PCLMULQDQ is
// unavailable).
struct Crc32Row {
  std::string name;
  std::int64_t bytes = 0;
  int calls = 0;  // per timed rep
  double table_us = 0;
  double clmul_us = 0;
};

std::vector<Crc32Row> time_crc32_rows(obs::Registry& reg) {
  std::vector<Crc32Row> rows = {{"crc32_serve_image", kServeImageBytes, 20},
                                {"crc32_4k", 4096, 2000}};
  using CrcFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);
  for (Crc32Row& row : rows) {
    const auto buf = crc32_input(static_cast<std::size_t>(row.bytes));
    const auto per_call_us = [&](const std::string& path, CrcFn fn) {
      std::uint32_t crc = 0;
      const double ms = best_of_ms(
          3,
          reg.histogram("phase.crc32." + row.name + "." + path + "_us",
                        phase_bounds()),
          [&] {
            for (int i = 0; i < row.calls; ++i)
              crc = fn(buf.data(), buf.size(), crc);
          });
      benchmark::DoNotOptimize(crc);
      return ms * 1000.0 / row.calls;
    };
    row.table_us = per_call_us("table", crc32_table);
    if (crc32_clmul_runs()) row.clmul_us = per_call_us("clmul", crc32_clmul);
  }
  return rows;
}

// Data path rows: one step timed at the scalar reference and at the
// best vector level on the 1-thread pool, per call, into the
// "phase.<section>.<name>.<level>_us" histograms. Report-only.
struct DatapathRow {
  std::string name;
  double scalar_us = 0;
  double vector_us = 0;
};

DatapathRow time_datapath_row(obs::Registry& reg, const std::string& section,
                              const std::string& name, int calls,
                              const std::function<void(SimdLevel)>& fn) {
  DatapathRow row{name, 0, 0};
  for (SimdLevel level : {SimdLevel::kScalar, simd_support()}) {
    ScopedSimdLevel force(level);
    const double ms = best_of_ms(
        5,
        reg.histogram("phase." + section + "." + name + "." +
                          simd_level_name(level) + "_us",
                      phase_bounds()),
        [&] {
          for (int i = 0; i < calls; ++i) fn(level);
        });
    (level == SimdLevel::kScalar ? row.scalar_us : row.vector_us) =
        ms * 1000.0 / calls;
  }
  return row;
}

// Float data path rows (DESIGN.md §9): the three steps around the float
// GEMM in a batch-8 forward — ALEX++'s ip512 (InnerProduct 4096 -> 512,
// the transposed product and its narrow panel), ALEX+'s conv2 im2col
// (64 x 16x16, 5x5, pad 2, per image) and ALEX+'s pool1 (max 3x3 stride
// 2 over 64 x 32x32 planes).
std::vector<DatapathRow> time_float_datapath_rows(obs::Registry& reg) {
  Rng rng(6);
  std::vector<DatapathRow> rows;
  const auto time_row = [&](const std::string& name, int calls,
                            const std::function<void(SimdLevel)>& fn) {
    rows.push_back(time_datapath_row(reg, "float_datapath", name, calls, fn));
  };

  nn::InnerProduct ip(4096, 512);
  Rng init(2);
  ip.params()[0]->value.fill_uniform(init, -0.05f, 0.05f);
  Tensor ip_in(Shape{8, 4096});
  ip_in.fill_uniform(rng, -1, 1);
  time_row("alexpp_ip512_fwd_b8", 20, [&](SimdLevel) {
    benchmark::DoNotOptimize(ip.forward(ip_in).data());
  });

  ConvGeometry g;
  g.in_c = 64;
  g.in_h = g.in_w = 16;
  g.kernel_h = g.kernel_w = 5;
  g.pad_h = g.pad_w = 2;
  Tensor image(Shape{8, 64, 16, 16});
  image.fill_uniform(rng, -1, 1);
  std::vector<float> cols(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  time_row("alexp_conv2_im2col_b8", 10, [&](SimdLevel) {
    for (std::int64_t sample = 0; sample < 8; ++sample)
      im2col(g, image.data() + sample * 64 * 16 * 16, cols.data());
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  });

  nn::Pool2d pool({nn::PoolMode::kMax, 3, 2, 0});
  Tensor planes(Shape{8, 64, 32, 32});
  planes.fill_uniform(rng, -1, 1);
  time_row("alexp_pool1_b8", 10, [&](SimdLevel) {
    benchmark::DoNotOptimize(pool.forward(planes).data());
  });
  return rows;
}

// Native integer data path rows (DESIGN.md §15): the frozen LeNet x0.5
// batch-8 forward at fixed(8,8) and fixed(16,16), and the int8 word
// steps of that forward (the conv1 im2row pack of every panel, the pool1
// planes, the input encode).
std::vector<DatapathRow> time_int_datapath_rows(obs::Registry& reg) {
  Rng rng(4);
  Tensor x(Shape{8, 1, 28, 28});
  x.fill_uniform(rng, 0, 1);
  std::vector<DatapathRow> rows;
  const auto time_row = [&](const std::string& name, int calls,
                            const std::function<void(SimdLevel)>& fn) {
    rows.push_back(time_datapath_row(reg, "int_datapath", name, calls, fn));
  };

  for (int bits : {8, 16}) {
    auto net = nn::make_lenet({0.5, 5});
    net->set_training_mode(false);
    quant::QuantizedNetwork q(*net, quant::fixed_config(bits, bits));
    q.calibrate(x);
    q.freeze_inference();
    if (!q.native_int_active()) continue;
    time_row("lenet_x0.5_fixed" + std::to_string(bits) + "_fwd_b8", 20,
             [&](SimdLevel) {
               benchmark::DoNotOptimize(q.int_engine()->forward_raw(x).raw);
             });
  }

  // LeNet x0.5 conv1 (28x28 -> 24x24, 5x5) and pool1 (10 x 24x24 -> 12x12)
  // over a batch of 8, on random int8 words.
  const FixedPointFormat in8(8, 7), out8(8, 5);
  std::vector<std::int8_t> words(8 * 10 * 24 * 24 + 2 * kIntPanel);
  for (std::int8_t& w : words)
    w = static_cast<std::int8_t>(rng.uniform_int(0, 255) - 128);
  const IntPatchGeom patch{1, 5, 1, 28, 28, 24};
  std::vector<std::int8_t> panel(
      static_cast<std::size_t>(int_panel_words<std::int8_t>(patch.k())));
  time_row("int8_pack_conv1_b8", 20, [&](SimdLevel level) {
    for (std::int64_t sample = 0; sample < 8; ++sample)
      for (std::int64_t j0 = 0; j0 < 24 * 24; j0 += kIntPanel)
        quant::pack_patch(level, patch,
                          words.data() + kIntPanel + sample * 28 * 28, j0,
                          std::min(kIntPanel, 24 * 24 - j0),
                          std::int8_t{-128}, panel.data());
    benchmark::DoNotOptimize(panel.data());
    benchmark::ClobberMemory();
  });
  const IntPoolGeom pool{24, 24, 12, 12, 2, 2, 0};
  std::vector<std::int8_t> pooled(8 * 10 * 12 * 12);
  time_row("int8_pool1_b8", 20, [&](SimdLevel level) {
    quant::pool_planes(level, pool, nn::PoolMode::kMax, in8.frac_bits(), out8,
                       80, words.data(), pooled.data());
    benchmark::DoNotOptimize(pooled.data());
    benchmark::ClobberMemory();
  });
  std::vector<std::int8_t> encoded(static_cast<std::size_t>(x.count()));
  time_row("int8_encode_b8", 20, [&](SimdLevel level) {
    quant::encode_words(level, x.data(), x.count(), in8, encoded.data());
    benchmark::DoNotOptimize(encoded.data());
    benchmark::ClobberMemory();
  });
  return rows;
}

// The native int path's per-stage plan for the 20 native zoo configs
// (5 full-size nets x fixed16/8/4 and binary): word width, kernel tier,
// int32 K block, proven accumulator bits and any fallback reason, keyed
// "<net>.fixed<bits>" and "<net>.binary", for the RunReport's
// "int_path" section.
json::Value int_path_section() {
  json::Value section = json::Value::object();
  for (const char* name : {"lenet", "convnet", "alex", "alex+", "alex++"}) {
    const Shape sample = nn::input_shape_for(name);
    Tensor calib(Shape{8, sample[1], sample[2], sample[3]});
    Rng rng(3);
    calib.fill_uniform(rng, 0, 1);
    for (const auto& [key, pc] :
         {std::pair<const char*, quant::PrecisionConfig>{
              "fixed16", quant::fixed_config(16, 16)},
          {"fixed8", quant::fixed_config(8, 8)},
          {"fixed4", quant::fixed_config(4, 4)},
          {"binary", quant::binary_config(16)}}) {
      auto net = nn::make_network(name, {});
      net->set_training_mode(false);
      quant::QuantizedNetwork q(*net, pc);
      q.calibrate(calib);
      q.freeze_inference();
      if (q.native_int_active())
        section.set(std::string(name) + "." + key,
                    obs::to_json(q.int_engine()->plan()));
    }
  }
  return section;
}

json::Value datapath_json(const std::vector<DatapathRow>& rows) {
  json::Value arr = json::Value::array();
  for (const DatapathRow& row : rows) {
    json::Value entry = json::Value::object();
    entry.set("name", row.name);
    entry.set("gated", false);
    entry.set("level", simd_level_name(simd_support()));
    entry.set("scalar_us", row.scalar_us);
    entry.set("vector_us", row.vector_us);
    entry.set("speedup",
              row.vector_us > 0 ? row.scalar_us / row.vector_us : 0.0);
    arr.push_back(std::move(entry));
  }
  return arr;
}

void print_datapath(const char* title, const std::vector<DatapathRow>& rows) {
  std::cout << title << " (" << simd_level_name(simd_support())
            << " vs scalar, 1 thread, per call):\n";
  for (const DatapathRow& row : rows)
    std::cout << "  " << row.name << ": " << row.scalar_us << " us -> "
              << row.vector_us << " us\n";
}

// Times each workload with a 1-thread pool and with the environment's
// pool (QNN_THREADS or hardware_concurrency) and writes BENCH_micro.json.
// The workloads are the thread-pool's sharding layers — raw GEMM
// (M-row sharding), a tall-K inner-product GEMM (K-chunk sharding), a
// network forward (batch sharding inside every layer), and a quantized
// evaluation (batch sharding plus guard scans) — plus an ABFT-protected
// evaluation, so a --trace run profiles the checksum/verify path too.
int write_scaling_report(bench::Session& session, double min_speedup) {
  const int threads = ThreadPool::env_threads();

  Rng rng(1);
  const std::int64_t n = 384;
  Tensor a(Shape{n, n}), b(Shape{n, n}), c(Shape{n, n});
  a.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);

  // Tall-K inner-product shape: M (batch) too small to occupy the pool,
  // so only the K-parallel schedule can use the extra threads. B stored
  // [N, K] as InnerProduct stores weights.
  const std::int64_t tm = 8, tn = 512, tk = 8192;
  Tensor ta(Shape{tm, tk}), tb(Shape{tn, tk}), tc(Shape{tm, tn});
  ta.fill_uniform(rng, -1, 1);
  tb.fill_uniform(rng, -1, 1);

  auto net = nn::make_lenet();
  Tensor batch(Shape{32, 1, 28, 28});
  batch.fill_uniform(rng, 0, 1);

  data::SyntheticConfig dc;
  dc.num_train = 64;
  dc.num_test = 128;
  const data::Split split = data::make_mnist_like(dc);
  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(split.train.images);

  protect::ProtectionConfig pcfg;
  pcfg.policy = protect::ProtectionPolicy::kDetectOnly;
  protect::ProtectedNetwork pnet(qnet, pcfg);
  pnet.calibrate_envelopes(split.test.images);

  std::vector<ScalingRow> rows = {
      {"gemm_384", true, 0, 0},
      {"gemm_tallk_ip_8x512x8192", true, 0, 0},
      {"lenet_forward_b32", true, 0, 0},
      {"quantized_evaluate_128", true, 0, 0},
      {"protected_evaluate_128", false, 0, 0},
  };
  const std::vector<std::function<void()>> workloads = {
      [&] {
        gemm({.m = n, .n = n, .k = n, .a = a.data(), .b = b.data(),
              .c = c.data()});
      },
      [&] {
        gemm({.m = tm, .n = tn, .k = tk, .a = ta.data(), .b = tb.data(),
              .trans_b = true, .c = tc.data()});
      },
      [&] { benchmark::DoNotOptimize(net->forward(batch).data()); },
      [&] { benchmark::DoNotOptimize(nn::evaluate(qnet, split.test)); },
      [&] { benchmark::DoNotOptimize(nn::evaluate(pnet, split.test)); },
  };

  obs::Registry& reg = obs::Registry::global();
  const auto phase_hist = [&](const ScalingRow& row, const char* mode) {
    return reg.histogram("phase." + row.name + "." + mode + "_us",
                         phase_bounds());
  };

  ThreadPool::set_global_threads(1);
  for (std::size_t w = 0; w < workloads.size(); ++w)
    rows[w].serial_ms =
        best_of_ms(3, phase_hist(rows[w], "serial"), workloads[w]);
  // SIMD rows run on the 1-thread pool so the ratios isolate the
  // microkernel dispatch from the scheduler.
  const std::vector<SimdRow> simd_rows = time_simd_rows(reg);
  const std::vector<Crc32Row> crc_rows = time_crc32_rows(reg);
  const std::vector<DatapathRow> int_rows = time_int_datapath_rows(reg);
  const std::vector<DatapathRow> float_rows = time_float_datapath_rows(reg);
  ThreadPool::set_global_threads(threads);
  for (std::size_t w = 0; w < workloads.size(); ++w)
    rows[w].parallel_ms =
        threads > 1
            ? best_of_ms(3, phase_hist(rows[w], "threads"), workloads[w])
            : rows[w].serial_ms;
  qnet.restore_masters();

  // Fold the per-phase histograms into the document. The pre-existing
  // schema ("threads" + "workloads") is untouched; "phases" is additive.
  const obs::Snapshot snap = reg.snapshot();
  json::Value phases = json::Value::array();
  for (const obs::MetricSnapshot& m : snap.metrics)
    if (m.name.rfind("phase.", 0) == 0) phases.push_back(m.to_json());

  json::Value doc = json::Value::object();
  doc.set("threads", threads);
  // Scheduling/grain parameters of this build, so runs of different
  // binaries (or future tunings) stay comparable.
  json::Value params = json::Value::object();
  params.set("hardware_concurrency",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  params.set("reduction_shards", kReductionShards);
  params.set("min_shard_work", kMinShardWork);
  params.set("claim_factor", ThreadPool::kClaimFactor);
  params.set("claim_batch_max", ThreadPool::kClaimBatchMax);
  params.set("worker_spin_iters",
             static_cast<std::int64_t>(ThreadPool::global().spin_iterations()));
  params.set("gemm_block_m", kGemmBlockM);
  params.set("gemm_k_chunk", kGemmKChunk);
  params.set("simd_support", simd_level_name(simd_support()));
  params.set("simd_active", simd_level_name(active_simd_level()));
  params.set("crc32_kernel", crc32_kernel());
  doc.set("params", std::move(params));
  json::Value arr = json::Value::array();
  for (const ScalingRow& row : rows) {
    json::Value entry = json::Value::object();
    entry.set("name", row.name);
    entry.set("gated", row.gated);
    entry.set("serial_ms", row.serial_ms);
    entry.set("threads_ms", row.parallel_ms);
    entry.set("speedup", row.speedup());
    arr.push_back(std::move(entry));
  }
  doc.set("workloads", std::move(arr));
  json::Value simd_arr = json::Value::array();
  for (const SimdRow& row : simd_rows) {
    json::Value entry = json::Value::object();
    entry.set("name", row.name);
    entry.set("gated", row.gated);
    entry.set("scalar_f32_ms", row.baseline_ms);
    entry.set("candidate_ms", row.candidate_ms);
    entry.set("speedup", row.speedup());
    simd_arr.push_back(std::move(entry));
  }
  doc.set("simd", std::move(simd_arr));
  json::Value crc_arr = json::Value::array();
  for (const Crc32Row& row : crc_rows) {
    json::Value entry = json::Value::object();
    entry.set("name", row.name);
    entry.set("bytes", row.bytes);
    entry.set("table_us", row.table_us);
    entry.set("clmul_us", row.clmul_us);
    entry.set("speedup", row.clmul_us > 0 ? row.table_us / row.clmul_us : 0.0);
    crc_arr.push_back(std::move(entry));
  }
  doc.set("crc32", std::move(crc_arr));
  doc.set("int_datapath", datapath_json(int_rows));
  doc.set("float_datapath", datapath_json(float_rows));
  doc.set("phases", std::move(phases));
  write_file_atomic("BENCH_micro.json", doc.dump() + "\n");

  session.report().add_guards("guards", qnet.total_guards());
  if (!session.report_path().empty())
    session.report().set("int_path", int_path_section());
  session.report().add_protection("protection", pnet.counters());

  std::cout << "\nThread scaling (1 vs " << threads << " threads):\n";
  for (const ScalingRow& row : rows)
    std::cout << "  " << row.name << ": " << row.serial_ms << " ms -> "
              << row.parallel_ms << " ms (" << row.speedup() << "x)\n";
  std::cout << "SIMD dispatch (" << simd_level_name(simd_support())
            << " vs scalar, 1 thread):\n";
  for (const SimdRow& row : simd_rows)
    std::cout << "  " << row.name << ": " << row.baseline_ms << " ms -> "
              << row.candidate_ms << " ms (" << row.speedup() << "x)\n";
  std::cout << "CRC-32 (" << crc32_kernel() << ", per call):\n";
  for (const Crc32Row& row : crc_rows)
    std::cout << "  " << row.name << ": table " << row.table_us
              << " us, clmul " << row.clmul_us << " us\n";
  print_datapath("Native int data path", int_rows);
  print_datapath("Float data path", float_rows);
  std::cout << "wrote BENCH_micro.json\n";

  // --min-speedup gate: every gated (large) workload must clear the
  // bar, so a scheduling regression fails CI instead of shipping.
  if (min_speedup <= 0.0) return 0;

  // SIMD rows gate independently of the core count: the vector float
  // kernel and the native int8 kernel must beat scalar float whenever
  // the CPU has AVX2 at all (rows are ungated on scalar-only hardware).
  int simd_failures = 0;
  for (const SimdRow& row : simd_rows) {
    if (!row.gated) continue;
    if (row.speedup() < min_speedup) {
      std::cerr << "FAIL " << row.name << ": speedup " << row.speedup()
                << " < required " << min_speedup << "\n";
      ++simd_failures;
    }
  }
  if (threads <= 1) {
    std::cout << "min-speedup gate skipped for thread scaling: pool has "
              << threads << " thread(s); scaling is undefined\n";
    return simd_failures == 0 ? 0 : 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) {
    // One core cannot speed anything up; the pool degrades to the
    // inline serial path and the expected result is parity, not a
    // ratio above 1. Report but don't gate.
    std::cout << "min-speedup gate skipped for thread scaling: "
              << "hardware_concurrency=" << hw
              << "; expected 4-thread result is parity with serial\n";
    return simd_failures == 0 ? 0 : 1;
  }
  int failures = simd_failures;
  for (const ScalingRow& row : rows) {
    if (!row.gated) continue;
    if (row.speedup() < min_speedup) {
      std::cerr << "FAIL " << row.name << ": speedup " << row.speedup()
                << " < required " << min_speedup << "\n";
      ++failures;
    }
  }
  if (failures == 0)
    std::cout << "min-speedup gate passed (>= " << min_speedup
              << "x on all gated workloads)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qnn

int main(int argc, char** argv) {
  // Strip --trace/--report before benchmark::Initialize sees argv.
  qnn::bench::Session session("micro_bench", &argc, argv);
  // Strip --min-speedup <x> the same way: when set and any gated
  // workload scales below x, exit nonzero (the CI perf gate). Under
  // --benchmark_list_tests, list the benchmarks and time nothing else.
  double min_speedup = 0.0;
  bool list_only = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-speedup") {
      if (i + 1 >= argc) {
        std::cerr << "--min-speedup requires a value\n";
        return 2;
      }
      const std::optional<double> v = qnn::env::parse_positive(argv[++i]);
      if (!v.has_value()) {
        std::cerr << "--min-speedup wants a positive ratio, got "
                  << argv[i] << "\n";
        return 2;
      }
      min_speedup = *v;
      continue;
    }
    if (arg == "--benchmark_list_tests" ||
        arg == "--benchmark_list_tests=true" ||
        arg == "--benchmark_list_tests=1")
      list_only = true;
    argv[out++] = argv[i];
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (list_only) return 0;
  return qnn::write_scaling_report(session, min_speedup);
}
