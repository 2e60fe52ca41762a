// The headline guarantee of the parallel runtime: an N-thread run and a
// 1-thread run produce bit-identical results — GEMM output buffers,
// evaluation accuracy, guard counters, fault-campaign statistics, and
// sweep checkpoint files.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "exp/sweep.h"
#include "faults/campaign.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "obs/trace.h"
#include "protect/protected_network.h"
#include "quant/qnetwork.h"
#include "tensor/gemm.h"
#include "tensor/microkernel.h"
#include "test_env.h"
#include "util/fileio.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

std::vector<float> random_matrix(std::int64_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> out(static_cast<std::size_t>(count));
  for (float& v : out) v = dist(rng);
  return out;
}

TEST(Determinism, GemmIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  // Sizes straddle the kernel's 64-row M blocks so the parallel run
  // actually splits work.
  const std::int64_t m = 193, n = 71, k = 83;
  const auto a = random_matrix(m * k, 1);
  const auto b = random_matrix(k * n, 2);
  const auto bias = random_matrix(m, 3);

  std::vector<float> c1(static_cast<std::size_t>(m * n));
  std::vector<float> c1b(static_cast<std::size_t>(m * n));
  ThreadPool::set_global_threads(1);
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
        .c = c1.data()});
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
        .c = c1b.data(), .bias = bias.data()});

  for (int threads : {2, 4, 7, 16}) {
    ThreadPool::set_global_threads(threads);
    std::vector<float> cn(static_cast<std::size_t>(m * n));
    gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
          .c = cn.data()});
    EXPECT_EQ(std::memcmp(c1.data(), cn.data(), c1.size() * sizeof(float)),
              0)
        << threads << " threads";
    gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
          .c = cn.data(), .bias = bias.data()});
    EXPECT_EQ(
        std::memcmp(c1b.data(), cn.data(), c1b.size() * sizeof(float)), 0)
        << threads << " threads (row bias)";
  }
}

TEST(Determinism, GemmBtColBiasIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::int64_t m = 130, n = 37, k = 29;
  const auto a = random_matrix(m * k, 4);
  const auto b = random_matrix(n * k, 5);
  const auto bias = random_matrix(n, 6);

  std::vector<float> c1(static_cast<std::size_t>(m * n));
  ThreadPool::set_global_threads(1);
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
        .trans_b = true, .c = c1.data(), .bias = bias.data(),
        .bias_axis = BiasAxis::kCol});

  ThreadPool::set_global_threads(4);
  std::vector<float> c4(static_cast<std::size_t>(m * n));
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
        .trans_b = true, .c = c4.data(), .bias = bias.data(),
        .bias_axis = BiasAxis::kCol});
  EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)),
            0);
}

TEST(Determinism, TallKGemmKShardingIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  // M too small to saturate the pool and K far beyond kGemmKChunk: the
  // inner-product shape where K-parallelism engages. The chunk plan and
  // merge tree depend only on K, so every pool size reproduces the
  // 1-thread bytes.
  const std::int64_t m = 8, n = 96, k = 1500;
  const auto a = random_matrix(m * k, 31);
  const auto b = random_matrix(k * n, 32);

  ThreadPool::set_global_threads(1);
  std::vector<float> c1(static_cast<std::size_t>(m * n));
  gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
        .c = c1.data()});

  for (int threads : {2, 4, 8, 16}) {
    ThreadPool::set_global_threads(threads);
    std::vector<float> cn(static_cast<std::size_t>(m * n));
    gemm({.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(),
          .c = cn.data()});
    EXPECT_EQ(std::memcmp(c1.data(), cn.data(), c1.size() * sizeof(float)),
              0)
        << threads << " threads";
  }
}

// Shared fixture: a small trained LeNet on synthetic MNIST-like data.
// Training runs once (serial order is itself deterministic) and the
// quantized evaluations under test reuse the same weights.
struct EvalFixture {
  data::Split split;
  std::unique_ptr<nn::Network> net;

  EvalFixture() {
    data::SyntheticConfig dc;
    dc.num_train = 150;
    dc.num_test = 60;
    dc.seed = 11;
    split = data::make_mnist_like(dc);
    nn::ZooConfig zc;
    zc.channel_scale = 0.2;
    net = nn::make_lenet(zc);
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 25;
    tc.sgd.learning_rate = 0.02;
    nn::train(*net, split.train, tc);
  }
};

TEST(Determinism, EvaluateAccuracyAndGuardsMatchSerial) {
  ThreadGuard guard;
  EvalFixture f;
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(8, 8));
  qnet.calibrate(f.split.train.images);

  ThreadPool::set_global_threads(1);
  qnet.reset_guards();
  const double acc1 = nn::evaluate(qnet, f.split.test);
  const quant::GuardCounters g1 = qnet.total_guards();
  qnet.restore_masters();

  for (int threads : {2, 4, 8, 16}) {
    ThreadPool::set_global_threads(threads);
    qnet.reset_guards();
    const double accn = nn::evaluate(qnet, f.split.test);
    const quant::GuardCounters gn = qnet.total_guards();
    qnet.restore_masters();
    EXPECT_EQ(acc1, accn) << threads << " threads";  // bit-identical
    EXPECT_EQ(g1.values, gn.values) << threads << " threads";
    EXPECT_EQ(g1.saturated, gn.saturated) << threads << " threads";
    EXPECT_EQ(g1.nan, gn.nan) << threads << " threads";
    EXPECT_EQ(g1.inf, gn.inf) << threads << " threads";
  }
}

TEST(Determinism, FaultCampaignMatchesSerial) {
  ThreadGuard guard;
  EvalFixture f;
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(8, 8));
  qnet.calibrate(f.split.train.images);

  faults::CampaignConfig cc;
  cc.trials = 5;
  cc.bit_error_rate = 1e-3;
  cc.seed = 2024;

  ThreadPool::set_global_threads(1);
  qnet.reset_guards();
  const faults::CampaignResult r1 =
      faults::run_fault_campaign(qnet, f.split.test, cc);
  const quant::GuardCounters g1 = qnet.total_guards();

  ThreadPool::set_global_threads(4);
  qnet.reset_guards();
  const faults::CampaignResult r4 =
      faults::run_fault_campaign(qnet, f.split.test, cc);
  const quant::GuardCounters g4 = qnet.total_guards();

  EXPECT_EQ(r1.trials, r4.trials);
  EXPECT_EQ(r1.failed_trials, r4.failed_trials);
  EXPECT_EQ(r1.total_flips, r4.total_flips);
  EXPECT_EQ(r1.mean_accuracy, r4.mean_accuracy);  // bit-identical
  EXPECT_EQ(r1.min_accuracy, r4.min_accuracy);
  EXPECT_EQ(r1.max_accuracy, r4.max_accuracy);
  // Replica guard counters fold back into the original, so the totals
  // cannot depend on how many replicas the pool spawned.
  EXPECT_EQ(g1.values, g4.values);
  EXPECT_EQ(g1.saturated, g4.saturated);
  EXPECT_EQ(g1.nan, g4.nan);
  EXPECT_EQ(g1.inf, g4.inf);
}

TEST(Determinism, ProtectedCampaignMatchesSerial) {
  // The fault-tolerance layer must preserve the bit-identity contract:
  // ABFT verification, envelope checks, and layer retries are all made
  // serially on the calling thread, so a protected campaign's accuracy,
  // protection counters, and guard counters cannot depend on pool size.
  ThreadGuard guard;
  EvalFixture f;
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(8, 8));
  qnet.calibrate(f.split.train.images);

  faults::CampaignConfig cc;
  cc.trials = 4;
  cc.bit_error_rate = 1e-3;
  cc.seed = 2024;
  cc.protection.policy = protect::ProtectionPolicy::kRetryClamp;

  ThreadPool::set_global_threads(1);
  qnet.reset_guards();
  const faults::CampaignResult r1 =
      faults::run_fault_campaign(qnet, f.split.test, cc);
  const quant::GuardCounters g1 = qnet.total_guards();

  for (int threads : {2, 8}) {
    ThreadPool::set_global_threads(threads);
    qnet.reset_guards();
    const faults::CampaignResult rn =
        faults::run_fault_campaign(qnet, f.split.test, cc);
    const quant::GuardCounters gn = qnet.total_guards();
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_EQ(r1.trials, rn.trials);
    EXPECT_EQ(r1.failed_trials, rn.failed_trials);
    EXPECT_EQ(r1.total_flips, rn.total_flips);
    EXPECT_EQ(r1.mean_accuracy, rn.mean_accuracy);  // bit-identical
    EXPECT_EQ(r1.min_accuracy, rn.min_accuracy);
    EXPECT_EQ(r1.max_accuracy, rn.max_accuracy);
    // The full protection ledger: envelope violations, clamps, layer
    // retries, degraded forwards, and ABFT block counts.
    EXPECT_EQ(r1.protection, rn.protection);
    EXPECT_EQ(g1.values, gn.values);
    EXPECT_EQ(g1.saturated, gn.saturated);
    EXPECT_EQ(g1.nan, gn.nan);
    EXPECT_EQ(g1.inf, gn.inf);
  }
}

TEST(Determinism, TallKNetworksBitIdenticalEndToEndAcrossThreadCounts) {
  // End-to-end pins over K-sharded GEMMs: full-size LeNet (conv2's
  // im2col K = 500, ip1's K = 800 — both beyond kGemmKChunk, so every
  // forward runs the chunked fixed-tree order). Float forward bytes,
  // Network::evaluate, QuantizedNetwork, and ProtectedNetwork (whose
  // ABFT checksums verify over the K-sharded partials) must all match
  // the 1-thread run exactly at 2/4/8 threads.
  ThreadGuard guard;
  data::SyntheticConfig dc;
  dc.num_train = 100;
  dc.num_test = 40;
  dc.seed = 17;
  const data::Split split = data::make_mnist_like(dc);
  auto net = nn::make_lenet();  // channel_scale 1.0: tall-K layers
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 20;
  tc.sgd.learning_rate = 0.02;
  nn::train(*net, split.train, tc);

  quant::QuantizedNetwork qnet(*net, quant::fixed_config(8, 8));
  qnet.calibrate(split.train.images);
  protect::ProtectionConfig pcfg;
  pcfg.policy = protect::ProtectionPolicy::kDetectOnly;
  protect::ProtectedNetwork pnet(qnet, pcfg);
  pnet.calibrate_envelopes(split.test.images);

  const Tensor& batch = split.test.images;

  ThreadPool::set_global_threads(1);
  const Tensor out1 = net->forward(batch);
  const double facc1 = nn::evaluate(*net, split.test);
  qnet.reset_guards();
  const double qacc1 = nn::evaluate(qnet, split.test);
  const quant::GuardCounters g1 = qnet.total_guards();
  qnet.restore_masters();
  qnet.reset_guards();
  pnet.reset_counters();
  const double pacc1 = nn::evaluate(pnet, split.test);
  const protect::ProtectionCounters pc1 = pnet.counters();
  qnet.restore_masters();

  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool::set_global_threads(threads);
    const Tensor outn = net->forward(batch);
    ASSERT_EQ(out1.count(), outn.count());
    EXPECT_EQ(std::memcmp(out1.data(), outn.data(),
                          static_cast<std::size_t>(out1.count()) *
                              sizeof(float)),
              0);
    EXPECT_EQ(facc1, nn::evaluate(*net, split.test));  // bit-identical
    qnet.reset_guards();
    EXPECT_EQ(qacc1, nn::evaluate(qnet, split.test));
    const quant::GuardCounters gn = qnet.total_guards();
    qnet.restore_masters();
    EXPECT_EQ(g1.values, gn.values);
    EXPECT_EQ(g1.saturated, gn.saturated);
    EXPECT_EQ(g1.nan, gn.nan);
    EXPECT_EQ(g1.inf, gn.inf);
    qnet.reset_guards();
    pnet.reset_counters();
    EXPECT_EQ(pacc1, nn::evaluate(pnet, split.test));
    const protect::ProtectionCounters pcn = pnet.counters();
    qnet.restore_masters();
    // ABFT-over-K-sharded-partials must verify cleanly and count the
    // same blocks at every pool size.
    EXPECT_EQ(pc1, pcn);
  }
}

TEST(Determinism, TallKSweepCheckpointBytesMatchSerial) {
  // Checkpoint pin over K-sharded layers: a sweep through the full-size
  // LeNet (tall-K conv2/ip1) writes byte-identical checkpoints at 1 and
  // 4 threads.
  ThreadGuard guard;
  const std::string dir = ::testing::TempDir();
  const std::string ck1 = dir + "/det_tallk_t1.json";
  const std::string ck4 = dir + "/det_tallk_t4.json";
  for (const auto& p : {ck1, ck4, ck1 + ".weights", ck4 + ".weights"})
    std::filesystem::remove(p);

  exp::ExperimentSpec spec;
  spec.network = "lenet";
  spec.dataset = "mnist";
  spec.channel_scale = 1.0;  // K = 500 / 800 products stay chunked
  spec.data.num_train = 80;
  spec.data.num_test = 40;
  spec.data.seed = 9;
  spec.float_train.epochs = 1;
  spec.float_train.batch_size = 20;
  spec.float_train.sgd.learning_rate = 0.02;
  spec.qat_train = spec.float_train;

  const std::vector<quant::PrecisionConfig> precisions = {
      quant::fixed_config(8, 8)};
  exp::SweepOptions opts;
  opts.faults.trials = 1;
  opts.faults.bit_error_rates = {1e-3};

  ThreadPool::set_global_threads(1);
  exp::SweepOptions o1 = opts;
  o1.checkpoint_path = ck1;
  exp::run_precision_sweep(spec, precisions, 0.0, o1);

  ThreadPool::set_global_threads(4);
  exp::SweepOptions o4 = opts;
  o4.checkpoint_path = ck4;
  exp::run_precision_sweep(spec, precisions, 0.0, o4);

  EXPECT_EQ(read_file(ck1), read_file(ck4));

  for (const auto& p : {ck1, ck4, ck1 + ".weights", ck4 + ".weights"})
    std::filesystem::remove(p);
}

TEST(Determinism, ProtectedSweepSurvivesKillAndResumeAcrossThreads) {
  // A sweep with protection policies enabled, killed after its first
  // point and resumed on a different pool size, must reproduce the
  // uninterrupted serial run's checkpoint byte-for-byte.
  ThreadGuard guard;
  const std::string dir = ::testing::TempDir();
  const std::string ck_killed = dir + "/det_prot_killed.json";
  const std::string ck_straight = dir + "/det_prot_straight.json";
  for (const auto& p : {ck_killed, ck_straight, ck_killed + ".weights",
                        ck_straight + ".weights"})
    std::filesystem::remove(p);

  exp::ExperimentSpec spec;
  spec.network = "lenet";
  spec.dataset = "mnist";
  spec.channel_scale = 0.2;
  spec.data.num_train = 200;
  spec.data.num_test = 100;
  spec.data.seed = 5;
  spec.float_train.epochs = 2;
  spec.float_train.batch_size = 20;
  spec.float_train.sgd.learning_rate = 0.02;
  spec.qat_train = spec.float_train;
  spec.qat_train.epochs = 1;
  spec.qat_train.sgd.learning_rate = 0.01;

  const std::vector<quant::PrecisionConfig> precisions = {
      quant::fixed_config(8, 8), quant::binary_config(16)};

  exp::SweepOptions opts;
  opts.faults.trials = 2;
  opts.faults.bit_error_rates = {1e-3};
  opts.faults.policies = {protect::ProtectionPolicy::kDetectOnly,
                          protect::ProtectionPolicy::kRetryClamp};

  // Uninterrupted serial reference.
  ThreadPool::set_global_threads(1);
  exp::SweepOptions straight = opts;
  straight.checkpoint_path = ck_straight;
  const exp::SweepResult ref =
      exp::run_precision_sweep(spec, precisions, 0.0, straight);
  ASSERT_EQ(ref.points.size(), precisions.size());
  for (const auto& point : ref.points)
    for (const auto& c : point.fault_campaigns)
      if (c.policy != protect::ProtectionPolicy::kOff) {
        EXPECT_GT(c.protection.values, 0);
      }

  // Kill a 4-thread run after point 0, resume with 2 threads.
  ThreadPool::set_global_threads(4);
  struct Killed {};
  exp::SweepOptions kill = opts;
  kill.checkpoint_path = ck_killed;
  kill.after_point = [](std::size_t k) {
    if (k == 0) throw Killed{};
  };
  EXPECT_THROW(exp::run_precision_sweep(spec, precisions, 0.0, kill),
               Killed);
  ASSERT_TRUE(file_exists(ck_killed));

  ThreadPool::set_global_threads(2);
  std::vector<std::size_t> resumed_points;
  exp::SweepOptions resume = opts;
  resume.checkpoint_path = ck_killed;
  resume.after_point = [&](std::size_t k) { resumed_points.push_back(k); };
  const exp::SweepResult resumed =
      exp::run_precision_sweep(spec, precisions, 0.0, resume);
  EXPECT_EQ(resumed_points, (std::vector<std::size_t>{1}));
  ASSERT_EQ(resumed.points.size(), precisions.size());

  EXPECT_EQ(read_file(ck_killed), read_file(ck_straight));

  for (const auto& p : {ck_killed, ck_straight, ck_killed + ".weights",
                        ck_straight + ".weights"})
    std::filesystem::remove(p);
}

TEST(Determinism, TracingOnDoesNotPerturbResults) {
  // Observability must be a pure observer: recording spans changes no
  // numeric output, no guard counter, and no campaign statistic, at any
  // thread count (DESIGN.md §11).
  ThreadGuard guard;
  struct TraceOff {
    ~TraceOff() {
      obs::set_trace_enabled(false);
      obs::clear_trace();
    }
  } trace_off;
  EvalFixture f;
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(8, 8));
  qnet.calibrate(f.split.train.images);

  faults::CampaignConfig cc;
  cc.trials = 3;
  cc.bit_error_rate = 1e-3;
  cc.seed = 99;

  obs::set_trace_enabled(false);
  ThreadPool::set_global_threads(1);
  qnet.reset_guards();
  const double acc_ref = nn::evaluate(qnet, f.split.test);
  const quant::GuardCounters g_ref = qnet.total_guards();
  qnet.restore_masters();
  qnet.reset_guards();
  const faults::CampaignResult c_ref =
      faults::run_fault_campaign(qnet, f.split.test, cc);

  obs::set_trace_enabled(true);
  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads, tracing on");
    ThreadPool::set_global_threads(threads);
    qnet.reset_guards();
    const double acc = nn::evaluate(qnet, f.split.test);
    const quant::GuardCounters g = qnet.total_guards();
    qnet.restore_masters();
    EXPECT_EQ(acc_ref, acc);  // bit-identical
    EXPECT_EQ(g_ref.values, g.values);
    EXPECT_EQ(g_ref.saturated, g.saturated);
    EXPECT_EQ(g_ref.nan, g.nan);
    EXPECT_EQ(g_ref.inf, g.inf);

    qnet.reset_guards();
    const faults::CampaignResult c =
        faults::run_fault_campaign(qnet, f.split.test, cc);
    EXPECT_EQ(c_ref.mean_accuracy, c.mean_accuracy);  // bit-identical
    EXPECT_EQ(c_ref.total_flips, c.total_flips);
    EXPECT_EQ(c_ref.failed_trials, c.failed_trials);
  }
  EXPECT_GT(obs::trace_event_count(), 0);
}

TEST(Determinism, CheckpointBytesMatchWithTracingOn) {
  // The strongest observer-purity check: a sweep traced at 4 threads
  // writes the same checkpoint bytes as an untraced serial sweep.
  ThreadGuard guard;
  struct TraceOff {
    ~TraceOff() {
      obs::set_trace_enabled(false);
      obs::clear_trace();
    }
  } trace_off;
  const std::string dir = ::testing::TempDir();
  const std::string ck_off = dir + "/det_trace_off.json";
  const std::string ck_on = dir + "/det_trace_on.json";
  for (const auto& p : {ck_off, ck_on, ck_off + ".weights",
                        ck_on + ".weights"})
    std::filesystem::remove(p);

  exp::ExperimentSpec spec;
  spec.network = "lenet";
  spec.dataset = "mnist";
  spec.channel_scale = 0.2;
  spec.data.num_train = 150;
  spec.data.num_test = 60;
  spec.data.seed = 7;
  spec.float_train.epochs = 1;
  spec.float_train.batch_size = 25;
  spec.float_train.sgd.learning_rate = 0.02;
  spec.qat_train = spec.float_train;

  const std::vector<quant::PrecisionConfig> precisions = {
      quant::fixed_config(8, 8)};

  exp::SweepOptions opts;
  opts.faults.trials = 2;
  opts.faults.bit_error_rates = {1e-3};

  obs::set_trace_enabled(false);
  ThreadPool::set_global_threads(1);
  exp::SweepOptions off = opts;
  off.checkpoint_path = ck_off;
  exp::run_precision_sweep(spec, precisions, 0.0, off);

  obs::set_trace_enabled(true);
  ThreadPool::set_global_threads(4);
  exp::SweepOptions on = opts;
  on.checkpoint_path = ck_on;
  exp::run_precision_sweep(spec, precisions, 0.0, on);

  EXPECT_EQ(read_file(ck_off), read_file(ck_on));

  for (const auto& p : {ck_off, ck_on, ck_off + ".weights",
                        ck_on + ".weights"})
    std::filesystem::remove(p);
}

TEST(Determinism, SweepCheckpointBytesMatchSerial) {
  ThreadGuard guard;
  const std::string dir = ::testing::TempDir();
  const std::string ck1 = dir + "/det_sweep_t1.json";
  const std::string ck4 = dir + "/det_sweep_t4.json";
  for (const auto& p : {ck1, ck4, ck1 + ".weights", ck4 + ".weights"})
    std::filesystem::remove(p);

  exp::ExperimentSpec spec;
  spec.network = "lenet";
  spec.dataset = "mnist";
  spec.channel_scale = 0.2;
  spec.data.num_train = 200;
  spec.data.num_test = 100;
  spec.data.seed = 5;
  spec.float_train.epochs = 2;
  spec.float_train.batch_size = 20;
  spec.float_train.sgd.learning_rate = 0.02;
  spec.qat_train = spec.float_train;
  spec.qat_train.epochs = 1;
  spec.qat_train.sgd.learning_rate = 0.01;

  const std::vector<quant::PrecisionConfig> precisions = {
      quant::float_config(), quant::fixed_config(8, 8),
      quant::binary_config(16)};

  exp::SweepOptions opts;
  opts.faults.trials = 2;
  opts.faults.bit_error_rates = {1e-3};

  ThreadPool::set_global_threads(1);
  exp::SweepOptions o1 = opts;
  o1.checkpoint_path = ck1;
  const exp::SweepResult r1 =
      exp::run_precision_sweep(spec, precisions, 0.0, o1);

  ThreadPool::set_global_threads(4);
  exp::SweepOptions o4 = opts;
  o4.checkpoint_path = ck4;
  const exp::SweepResult r4 =
      exp::run_precision_sweep(spec, precisions, 0.0, o4);

  ASSERT_EQ(r1.points.size(), precisions.size());
  ASSERT_EQ(r4.points.size(), precisions.size());
  for (std::size_t i = 0; i < r1.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(r1.points[i].accuracy, r4.points[i].accuracy);
    EXPECT_EQ(r1.points[i].guards.values, r4.points[i].guards.values);
    EXPECT_EQ(r1.points[i].guards.saturated,
              r4.points[i].guards.saturated);
  }

  // The strongest form of the guarantee: the serialized checkpoints are
  // byte-for-byte identical, doubles and all.
  EXPECT_EQ(read_file(ck1), read_file(ck4));

  for (const auto& p : {ck1, ck4, ck1 + ".weights", ck4 + ".weights"})
    std::filesystem::remove(p);
}

TEST(Determinism, QatSweepBytesMatchScalarLevel) {
  // The fake-quant kernels (DESIGN.md §15) re-quantize every weight and
  // feature map on every QAT step: a sweep over fixed, pow2 and binary
  // points writes the same checkpoint bytes and guard totals at the
  // scalar level as at every vector level this CPU supports.
  ThreadGuard guard;
  ThreadPool::set_global_threads(1);
  const std::string dir = ::testing::TempDir();

  exp::ExperimentSpec spec;
  spec.network = "lenet";
  spec.dataset = "mnist";
  spec.channel_scale = 0.2;
  spec.data.num_train = 160;
  spec.data.num_test = 80;
  spec.data.seed = 9;
  spec.float_train.epochs = 1;
  spec.float_train.batch_size = 20;
  spec.float_train.sgd.learning_rate = 0.02;
  spec.qat_train = spec.float_train;
  spec.qat_train.sgd.learning_rate = 0.01;
  const std::vector<quant::PrecisionConfig> precisions = {
      quant::fixed_config(8, 8), quant::pow2_config(6, 16),
      quant::binary_config(16)};

  const auto run_at = [&](SimdLevel level, const std::string& ck) {
    for (const auto& p : {ck, ck + ".weights"}) std::filesystem::remove(p);
    ScopedSimdLevel force(level);
    exp::SweepOptions o;
    o.checkpoint_path = ck;
    return exp::run_precision_sweep(spec, precisions, 0.0, o);
  };
  const std::string ck_scalar = dir + "/det_qat_scalar.json";
  const exp::SweepResult ref = run_at(SimdLevel::kScalar, ck_scalar);
  ASSERT_EQ(ref.points.size(), precisions.size());
  std::int64_t values = 0;
  for (const exp::PrecisionResult& p : ref.points) values += p.guards.values;
  ASSERT_GT(values, 0);
  for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!simd_supports(level)) continue;
    SCOPED_TRACE(simd_level_name(level));
    const std::string ck =
        dir + "/det_qat_" + simd_level_name(level) + ".json";
    const exp::SweepResult r = run_at(level, ck);
    ASSERT_EQ(r.points.size(), ref.points.size());
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      EXPECT_EQ(r.points[i].accuracy, ref.points[i].accuracy);
      EXPECT_EQ(r.points[i].guards.values, ref.points[i].guards.values);
      EXPECT_EQ(r.points[i].guards.saturated,
                ref.points[i].guards.saturated);
      EXPECT_EQ(r.points[i].guards.nan, ref.points[i].guards.nan);
      EXPECT_EQ(r.points[i].guards.inf, ref.points[i].guards.inf);
    }
    EXPECT_EQ(read_file(ck), read_file(ck_scalar));
    EXPECT_EQ(read_file(ck + ".weights"), read_file(ck_scalar + ".weights"));
    for (const auto& p : {ck, ck + ".weights"}) std::filesystem::remove(p);
  }
  for (const auto& p : {ck_scalar, ck_scalar + ".weights"})
    std::filesystem::remove(p);
}

// The native integer inference path (DESIGN.md §15): a frozen fixed-
// point forward is bit-identical at every thread count AND every SIMD
// level — integer accumulation is exact, so this is structural, and it
// extends the serve replay digests (which hash these bytes) to the int
// path.
TEST(Determinism, FrozenIntForwardBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  EvalFixture f;
  for (const quant::PrecisionConfig& cfg :
       {quant::fixed_config(8, 8), quant::fixed_config(16, 16),
        quant::binary_config(16)}) {
    SCOPED_TRACE(cfg.label());
    nn::Network net = f.net->clone();
    quant::QuantizedNetwork qnet(net, cfg);
    qnet.calibrate(f.split.train.images);
    qnet.freeze_inference();
    ASSERT_TRUE(qnet.native_int_active());

    ThreadPool::set_global_threads(1);
    const Tensor base = qnet.forward(f.split.test.images);
    for (int threads : {4, 8}) {
      ThreadPool::set_global_threads(threads);
      for (SimdLevel level : {SimdLevel::kScalar, simd_support()}) {
        ScopedSimdLevel force(level);
        const Tensor got = qnet.forward(f.split.test.images);
        ASSERT_EQ(got.count(), base.count());
        EXPECT_EQ(std::memcmp(got.data(), base.data(),
                              static_cast<std::size_t>(base.count()) *
                                  sizeof(float)),
                  0)
            << threads << " threads, " << simd_level_name(level);
      }
    }
  }
}

// Int path on vs the fake-quantized float path: same calibrated grids,
// so logits agree to within one final-site grid step (the float path's
// float32 accumulation rounding) and accuracy stays inside the
// calibrated guard envelope.
TEST(Determinism, IntPathTracksFakeQuantWithinGuardEnvelope) {
  ThreadGuard guard;
  EvalFixture f;
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(8, 8));
  qnet.calibrate(f.split.train.images);

  const double acc_float = nn::evaluate(qnet, f.split.test);
  qnet.restore_masters();
  const Tensor float_logits = qnet.forward(f.split.test.images);
  qnet.restore_masters();

  qnet.freeze_inference();
  ASSERT_TRUE(qnet.native_int_active());
  const double acc_int = nn::evaluate(qnet, f.split.test);
  const Tensor int_logits = qnet.forward(f.split.test.images);

  const auto& fq = dynamic_cast<const quant::FixedQuantizer&>(
      qnet.data_quantizer(qnet.num_sites() - 1));
  const double step = fq.format()->step();
  ASSERT_EQ(int_logits.count(), float_logits.count());
  for (std::int64_t i = 0; i < int_logits.count(); ++i)
    EXPECT_NEAR(int_logits[i], float_logits[i], step + 1e-9)
        << "logit " << i;
  // Logits a grid step apart can flip an argmax tie; bound the drift to
  // a couple of test samples rather than demanding exact equality.
  EXPECT_NEAR(acc_int, acc_float,
              2.0 / static_cast<double>(f.split.test.images.shape()[0]) +
                  1e-12);
}

}  // namespace
}  // namespace qnn
