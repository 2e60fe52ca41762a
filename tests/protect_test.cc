// Fault-tolerance layer tests: ABFT checksummed GEMM (detection,
// bounded re-execution, bit-identity with the plain kernels), range-
// guard envelopes, the ProtectedNetwork policy lattice, and protected
// fault campaigns.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "faults/campaign.h"
#include "nn/trainer.h"
#include "nn/zoo.h"
#include "protect/abft.h"
#include "protect/envelope.h"
#include "protect/protected_network.h"
#include "tensor/gemm.h"
#include "test_env.h"
#include "testing/gemm_forms.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace qnn::protect {
namespace {

// --- ABFT GEMM ----------------------------------------------------------

struct GemmProblem {
  std::int64_t m, n, k;
  std::vector<float> a, b, bias, bt, col_bias;

  GemmProblem(std::int64_t m_, std::int64_t n_, std::int64_t k_)
      : m(m_), n(n_), k(k_), a(m_ * k_), b(k_ * n_), bias(m_),
        bt(n_ * k_), col_bias(n_) {
    // Deterministic, sign-varied fill; magnitudes O(1).
    for (std::size_t i = 0; i < a.size(); ++i)
      a[i] = 0.05f * static_cast<float>((i * 37 + 11) % 23) - 0.5f;
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = 0.04f * static_cast<float>((i * 53 + 5) % 29) - 0.55f;
    for (std::size_t i = 0; i < bias.size(); ++i)
      bias[i] = 0.1f * static_cast<float>(i % 7) - 0.3f;
    for (std::size_t i = 0; i < bt.size(); ++i)
      bt[i] = 0.03f * static_cast<float>((i * 41 + 3) % 31) - 0.45f;
    for (std::size_t j = 0; j < col_bias.size(); ++j)
      col_bias[j] = 0.05f * static_cast<float>(j % 5);
  }

  // Conv's forward form: B stored [K,N], per-row bias.
  GemmOp op(float* c) const {
    return {.m = m, .n = n, .k = k, .a = a.data(), .b = b.data(), .c = c,
            .bias = bias.data()};
  }
  // InnerProduct's forward form: B stored [N,K], per-column bias.
  GemmOp bt_op(float* c) const {
    return {.m = m, .n = n, .k = k, .a = a.data(), .b = bt.data(),
            .trans_b = true, .c = c, .bias = col_bias.data(),
            .bias_axis = BiasAxis::kCol};
  }
};

TEST(Abft, CleanRowBiasMatchesPlainKernelByteForByte) {
  const GemmProblem p(150, 33, 40);  // 3 M-shards at kGemmBlockM = 64
  std::vector<float> plain(p.m * p.n), checked(p.m * p.n);
  gemm(p.op(plain.data()));
  const AbftCounters c = abft_gemm(p.op(checked.data()), AbftOptions{});
  EXPECT_EQ(std::memcmp(plain.data(), checked.data(),
                        plain.size() * sizeof(float)),
            0);
  EXPECT_EQ(c.blocks_checked, (p.m + kGemmBlockM - 1) / kGemmBlockM);
  EXPECT_TRUE(c.clean());
  EXPECT_EQ(c.reexecutions, 0);
}

TEST(Abft, CleanBtColBiasMatchesPlainKernelByteForByte) {
  // B stored [N,K]: InnerProduct's forward shape.
  const GemmProblem p(100, 25, 48);
  std::vector<float> plain(p.m * p.n), checked(p.m * p.n);
  gemm(p.bt_op(plain.data()));
  const AbftCounters c = abft_gemm(p.bt_op(checked.data()), AbftOptions{});
  EXPECT_EQ(std::memcmp(plain.data(), checked.data(),
                        plain.size() * sizeof(float)),
            0);
  EXPECT_TRUE(c.clean());
  EXPECT_EQ(c.blocks_checked, (p.m + kGemmBlockM - 1) / kGemmBlockM);
}

TEST(Abft, TransientCorruptionIsDetectedAndRepaired) {
  const GemmProblem p(150, 33, 40);
  std::vector<float> plain(p.m * p.n), checked(p.m * p.n);
  gemm(p.op(plain.data()));
  // Corrupt one element of the middle shard on the initial pass only —
  // a transient upset that re-execution heals.
  const AbftCounters c = abft_gemm(
      p.op(checked.data()), AbftOptions{},
      [](std::int64_t i0, std::int64_t, std::int64_t, float* c_rows,
         int attempt) {
        if (i0 == kGemmBlockM && attempt == 0) c_rows[0] += 1000.0f;
      });
  EXPECT_EQ(c.mismatches, 1);
  EXPECT_EQ(c.reexecutions, 1);
  EXPECT_EQ(c.unrecovered, 0);
  // Recovery is exact: the repaired shard reproduces the clean bytes.
  EXPECT_EQ(std::memcmp(plain.data(), checked.data(),
                        plain.size() * sizeof(float)),
            0);
}

TEST(Abft, TallKRecoveryReusesChunkPlanAndRestoresExactBytes) {
  // Regression for K-sharded re-execution: the recompute path slices the
  // corrupted M-shard out of the operands and re-runs the kernel, and
  // gemm_k_plan depends only on K — so the retried shard walks the same
  // chunk boundaries and merge tree as the original pass and lands on
  // identical bytes. k = 700 spans three chunks (256/256/188); verify at
  // every pool size, since recovery must also be schedule-independent.
  ThreadGuard guard;
  const GemmProblem p(150, 33, 700);
  std::vector<float> plain(p.m * p.n);
  gemm(p.op(plain.data()));
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool::set_global_threads(threads);
    std::vector<float> checked(p.m * p.n);
    const AbftCounters c = abft_gemm(
        p.op(checked.data()), AbftOptions{},
        [](std::int64_t i0, std::int64_t, std::int64_t, float* c_rows,
           int attempt) {
          if (i0 == kGemmBlockM && attempt == 0) c_rows[0] += 1000.0f;
        });
    EXPECT_EQ(c.mismatches, 1);
    EXPECT_EQ(c.reexecutions, 1);
    EXPECT_EQ(c.unrecovered, 0);
    // Recovered output == fault-free output, bit for bit.
    EXPECT_EQ(std::memcmp(plain.data(), checked.data(),
                          plain.size() * sizeof(float)),
              0);
  }
}

TEST(Abft, TallKBtRecoveryRestoresExactBytes) {
  // Same plan-reuse guarantee through the trans_b form (the
  // inner-product forward shape, where K-parallelism engages: small M,
  // K across multiple chunks). The initial pass and the re-execution
  // share the thread's gemm workspace, found cold, warm and stale
  // (testing/gemm_forms.h).
  const GemmProblem p(8, 25, 600);
  std::vector<float> plain(p.m * p.n);
  gemm(p.bt_op(plain.data()));
  const auto recovered = [&] {
    std::vector<float> checked(p.m * p.n);
    const AbftCounters c = abft_gemm(
        p.bt_op(checked.data()), AbftOptions{},
        [](std::int64_t i0, std::int64_t, std::int64_t, float* c_rows,
           int attempt) {
          if (i0 == 0 && attempt == 0) c_rows[1] -= 500.0f;
        });
    EXPECT_EQ(c.mismatches, 1);
    EXPECT_EQ(c.unrecovered, 0);
    return std::memcmp(plain.data(), checked.data(),
                       plain.size() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(testing::on_fresh_thread(recovered)) << "cold";
  EXPECT_TRUE(recovered()) << "warm";
  testing::dirty_gemm_workspace();
  EXPECT_TRUE(recovered()) << "stale";
}

TEST(Abft, TallKCleanScopedGemmVerifiesOverShardedPartials) {
  // The checksum relation must hold over the chunked fixed-tree order on
  // a clean run: no false mismatches, and the guarded result stays
  // byte-identical to the plain kernel.
  const GemmProblem p(96, 17, 1000);
  std::vector<float> plain(p.m * p.n), guarded(p.m * p.n);
  gemm(p.op(plain.data()));
  AbftScope scope{AbftOptions{}};
  gemm_guarded(p.op(guarded.data()));
  EXPECT_EQ(std::memcmp(plain.data(), guarded.data(),
                        plain.size() * sizeof(float)),
            0);
  const AbftCounters c = scope.counters();
  EXPECT_EQ(c.blocks_checked, (p.m + kGemmBlockM - 1) / kGemmBlockM);
  EXPECT_TRUE(c.clean());
  EXPECT_EQ(c.reexecutions, 0);
}

TEST(Abft, PersistentCorruptionExhaustsRetriesAndReportsUnrecovered) {
  const GemmProblem p(128, 20, 32);
  std::vector<float> checked(p.m * p.n);
  AbftOptions opts;
  opts.max_reexecutions = 2;
  const AbftCounters c = abft_gemm(
      p.op(checked.data()), opts,
      [](std::int64_t i0, std::int64_t, std::int64_t, float* c_rows, int) {
        if (i0 == 0) c_rows[0] += 1000.0f;  // hard fault: every attempt
      });
  EXPECT_EQ(c.mismatches, 1);
  EXPECT_EQ(c.reexecutions, 2);
  EXPECT_EQ(c.unrecovered, 1);
  EXPECT_FALSE(c.clean());
}

TEST(Abft, CorruptionBelowToleranceIsInvisibleByDesign) {
  // A perturbation inside the float rounding envelope of a K-length dot
  // product cannot be distinguished from legitimate arithmetic.
  const GemmProblem p(64, 16, 32);
  std::vector<float> checked(p.m * p.n);
  const AbftCounters c = abft_gemm(
      p.op(checked.data()), AbftOptions{},
      [](std::int64_t, std::int64_t, std::int64_t, float* c_rows,
         int attempt) {
        if (attempt == 0) c_rows[0] = std::nextafterf(c_rows[0], 1e30f);
      });
  EXPECT_EQ(c.mismatches, 0);
}

TEST(Abft, NaNCorruptionIsCaught) {
  const GemmProblem p(64, 16, 32);
  std::vector<float> plain(p.m * p.n), checked(p.m * p.n);
  gemm(p.op(plain.data()));
  const AbftCounters c = abft_gemm(
      p.op(checked.data()), AbftOptions{},
      [](std::int64_t, std::int64_t, std::int64_t, float* c_rows,
         int attempt) {
        if (attempt == 0) c_rows[3] = std::nanf("");
      });
  EXPECT_EQ(c.mismatches, 1);
  EXPECT_EQ(c.unrecovered, 0);
  EXPECT_EQ(std::memcmp(plain.data(), checked.data(),
                        plain.size() * sizeof(float)),
            0);
}

// Forms a shard retry cannot reproduce are refused before any work:
// accumulate (the retry would add onto the corrupted C, not the old one)
// and trans_a (a row shard of a [K,M] A is not a contiguous slice).
TEST(Abft, RejectsAccumulateForm) {
  const GemmProblem p(64, 16, 32);
  std::vector<float> c(p.m * p.n, 1.0f);
  GemmOp op = p.op(c.data());
  op.accumulate = true;
  EXPECT_THROW(abft_gemm(op, AbftOptions{}), CheckError);
  EXPECT_EQ(c, std::vector<float>(p.m * p.n, 1.0f));  // C untouched
}

TEST(Abft, RejectsTransposedAForm) {
  const GemmProblem p(64, 16, 32);
  std::vector<float> c(p.m * p.n, 1.0f);
  GemmOp op = p.op(c.data());
  op.trans_a = true;  // p.a read as [K,M]
  EXPECT_THROW(abft_gemm(op, AbftOptions{}), CheckError);
  EXPECT_EQ(c, std::vector<float>(p.m * p.n, 1.0f));  // C untouched
}

TEST(Abft, GuardedDispatchFallsThroughWithoutScope) {
  const GemmProblem p(96, 17, 24);
  std::vector<float> plain(p.m * p.n), guarded(p.m * p.n);
  gemm(p.op(plain.data()));
  gemm_guarded(p.op(guarded.data()));
  EXPECT_EQ(std::memcmp(plain.data(), guarded.data(),
                        plain.size() * sizeof(float)),
            0);
}

TEST(Abft, ScopeCollectsCountersFromGuardedCalls) {
  const GemmProblem p(96, 17, 24);
  std::vector<float> plain(p.m * p.n), guarded(p.m * p.n);
  gemm(p.op(plain.data()));
  AbftScope scope{AbftOptions{}};
  gemm_guarded(p.op(guarded.data()));
  EXPECT_EQ(std::memcmp(plain.data(), guarded.data(),
                        plain.size() * sizeof(float)),
            0);
  const AbftCounters c = scope.counters();
  EXPECT_EQ(c.blocks_checked, (p.m + kGemmBlockM - 1) / kGemmBlockM);
  EXPECT_TRUE(c.clean());
}

TEST(Abft, ScopeReachesGemmsIssuedFromPoolWorkers) {
  // Conv's forward shards the batch across the thread pool; the guarded
  // per-sample GEMMs must inherit the scope through the task context.
  nn::ZooConfig zc;
  zc.channel_scale = 0.2;
  auto net = nn::make_lenet(zc);
  Tensor in(Shape{4, 1, 28, 28});
  Rng rng(9);
  in.fill_uniform(rng, 0, 1);
  const Tensor unscoped = net->forward(in);
  AbftScope scope{AbftOptions{}};
  const Tensor scoped = net->forward(in);
  for (std::int64_t i = 0; i < scoped.count(); ++i)
    ASSERT_EQ(scoped[i], unscoped[i]);
  EXPECT_GT(scope.counters().blocks_checked, 0);
  EXPECT_TRUE(scope.counters().clean());
}

// --- envelopes ----------------------------------------------------------

TEST(Envelope, ObserveExpandsAndMarginWidens) {
  EnvelopeSet env;
  const float site0[] = {1.0f, 2.0f, 3.0f};
  const float site2[] = {-1.0f, 5.0f};
  env.observe(0, site0, 3);
  env.observe(2, site2, 2);
  ASSERT_EQ(env.size(), 3u);
  EXPECT_TRUE(env.sites()[0].valid);
  EXPECT_FALSE(env.sites()[1].valid);  // never observed
  EXPECT_TRUE(env.sites()[2].valid);
  EXPECT_DOUBLE_EQ(env.sites()[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(env.sites()[0].hi, 3.0);

  env.expand_margins(0.5);  // half the range (= 1.0) on each side + slack
  EXPECT_NEAR(env.sites()[0].lo, 0.0, 1e-5);
  EXPECT_NEAR(env.sites()[0].hi, 4.0, 1e-5);
  EXPECT_FALSE(env.sites()[1].valid);  // margins never validate a site
}

TEST(Envelope, ObserveIgnoresNonFiniteValues) {
  EnvelopeSet env;
  const float vals[] = {2.0f, std::nanf(""), INFINITY, -INFINITY, 4.0f};
  env.observe(0, vals, 5);
  EXPECT_DOUBLE_EQ(env.sites()[0].lo, 2.0);
  EXPECT_DOUBLE_EQ(env.sites()[0].hi, 4.0);
}

TEST(Envelope, CountViolationsFlagsOutOfRangeNaNAndInf) {
  EnvelopeSet env{std::vector<SiteEnvelope>{{-1.0, 1.0, true}}};
  const float vals[] = {0.0f,           -1.0f, 1.0f, 1.5f, -2.0f,
                        std::nanf(""), INFINITY};
  EXPECT_EQ(env.count_violations(0, vals, 7), 4);
  // Unknown/invalid sites never flag.
  EXPECT_EQ(env.count_violations(5, vals, 7), 0);
  EnvelopeSet invalid{std::vector<SiteEnvelope>{{0.0, 0.0, false}}};
  EXPECT_EQ(invalid.count_violations(0, vals, 7), 0);
}

TEST(Envelope, ClampPullsIntoRangeAndReplacesNaN) {
  EnvelopeSet env{std::vector<SiteEnvelope>{{-1.0, 1.0, true},
                                            {2.0, 6.0, true},
                                            {-8.0, -3.0, true}}};
  float a[] = {0.5f, 1.5f, -2.0f, std::nanf("")};
  EXPECT_EQ(env.clamp(0, a, 4), 3);
  EXPECT_EQ(a[0], 0.5f);
  EXPECT_EQ(a[1], 1.0f);
  EXPECT_EQ(a[2], -1.0f);
  EXPECT_EQ(a[3], 0.0f);  // NaN -> in-envelope value nearest zero

  float b[] = {std::nanf("")};
  EXPECT_EQ(env.clamp(1, b, 1), 1);
  EXPECT_EQ(b[0], 2.0f);  // envelope entirely positive: nearest-zero = lo
  float c[] = {std::nanf("")};
  EXPECT_EQ(env.clamp(2, c, 1), 1);
  EXPECT_EQ(c[0], -3.0f);  // entirely negative: nearest-zero = hi

  // Clamp count agrees with the violation count on the same data.
  float d[] = {0.5f, 1.5f, -2.0f, std::nanf("")};
  const std::int64_t violations = env.count_violations(0, d, 4);
  EXPECT_EQ(env.clamp(0, d, 4), violations);
  EXPECT_EQ(env.count_violations(0, d, 4), 0);  // idempotent after clamp
}

TEST(Envelope, PolicyNamesRoundTrip) {
  for (ProtectionPolicy p :
       {ProtectionPolicy::kOff, ProtectionPolicy::kDetectOnly,
        ProtectionPolicy::kClamp, ProtectionPolicy::kRetryClamp})
    EXPECT_EQ(policy_from_name(policy_name(p)), p);
  EXPECT_THROW(policy_from_name("bogus"), CheckError);
}

// --- ProtectedNetwork ---------------------------------------------------

struct ProtectFixture {
  data::Split split;
  std::unique_ptr<nn::Network> net;

  ProtectFixture() {
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

ProtectFixture& fixture() {
  static ProtectFixture f;  // trained once, shared read-only
  return f;
}

ProtectionConfig config_for(ProtectionPolicy policy) {
  ProtectionConfig pc;
  pc.policy = policy;
  return pc;
}

TEST(ProtectedNetwork, OffPolicyIsExactPassThrough) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::float_config());
  qnet.calibrate(f.split.train.images);

  ProtectedNetwork pnet(qnet, config_for(ProtectionPolicy::kOff));
  Tensor in(Shape{2, 1, 28, 28});
  Rng rng(3);
  in.fill_uniform(rng, 0, 1);
  const Tensor direct = qnet.forward(in);
  const Tensor wrapped = pnet.forward(in);
  for (std::int64_t i = 0; i < direct.count(); ++i)
    ASSERT_EQ(wrapped[i], direct[i]);
  EXPECT_EQ(pnet.counters(), ProtectionCounters{});
  qnet.restore_masters();
}

TEST(ProtectedNetwork, ForwardWithoutEnvelopesThrows) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::float_config());
  qnet.calibrate(f.split.train.images);
  ProtectedNetwork pnet(qnet, config_for(ProtectionPolicy::kDetectOnly));
  Tensor in(Shape{1, 1, 28, 28});
  EXPECT_THROW(pnet.forward(in), CheckError);
  qnet.restore_masters();
}

TEST(ProtectedNetwork, CleanEvaluationNeverViolatesItsEnvelopes) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(8, 8));
  qnet.calibrate(f.split.train.images);
  const double clean = nn::evaluate(qnet, f.split.test);
  qnet.restore_masters();

  ProtectedNetwork pnet(qnet, config_for(ProtectionPolicy::kDetectOnly));
  pnet.calibrate_envelopes(f.split.test.images);
  const double protected_acc = nn::evaluate(pnet, f.split.test);
  EXPECT_DOUBLE_EQ(protected_acc, clean);
  EXPECT_GT(pnet.counters().values, 0);
  EXPECT_EQ(pnet.counters().out_of_envelope, 0);
  EXPECT_EQ(pnet.counters().clamped, 0);
  EXPECT_GT(pnet.counters().abft.blocks_checked, 0);
  EXPECT_TRUE(pnet.counters().abft.clean());
  qnet.restore_masters();
}

TEST(ProtectedNetwork, DetectOnlyCountsButLeavesCorruptionInPlace) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::float_config());
  qnet.calibrate(f.split.train.images);
  ProtectedNetwork pnet(qnet, config_for(ProtectionPolicy::kDetectOnly));
  pnet.calibrate_envelopes(f.split.test.images);

  quant::ForwardHooks hooks;
  hooks.on_accumulator = [](std::size_t site, Tensor& values) {
    if (site == 2) values.data()[0] = 1e7f;  // far outside any envelope
  };
  qnet.set_forward_hooks(hooks);

  Tensor in(Shape{2, 1, 28, 28});
  Rng rng(5);
  in.fill_uniform(rng, 0, 1);
  const Tensor detected = pnet.forward(in);
  const Tensor unprotected = qnet.forward(in);
  for (std::int64_t i = 0; i < detected.count(); ++i)
    ASSERT_EQ(detected[i], unprotected[i]);
  EXPECT_GT(pnet.counters().out_of_envelope, 0);
  EXPECT_EQ(pnet.counters().clamped, 0);
  EXPECT_EQ(pnet.counters().layer_retries, 0);
  qnet.clear_forward_hooks();
  qnet.restore_masters();
}

TEST(ProtectedNetwork, ClampPullsInjectedValuesBackIntoEnvelope) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::float_config());
  qnet.calibrate(f.split.train.images);
  ProtectedNetwork pnet(qnet, config_for(ProtectionPolicy::kClamp));
  pnet.calibrate_envelopes(f.split.test.images);

  quant::ForwardHooks hooks;
  hooks.on_accumulator = [](std::size_t site, Tensor& values) {
    if (site == 2) values.data()[0] = 1e7f;
  };
  qnet.set_forward_hooks(hooks);

  Tensor in(Shape{2, 1, 28, 28});
  Rng rng(5);
  in.fill_uniform(rng, 0, 1);
  (void)pnet.forward(in);
  EXPECT_GT(pnet.counters().out_of_envelope, 0);
  EXPECT_GT(pnet.counters().clamped, 0);
  EXPECT_EQ(pnet.counters().layer_retries, 0);
  EXPECT_FALSE(pnet.last_forward_degraded());
  qnet.clear_forward_hooks();
  qnet.restore_masters();
}

TEST(ProtectedNetwork, RetryRecoversFromTransientFaultExactly) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::float_config());
  qnet.calibrate(f.split.train.images);

  Tensor in(Shape{2, 1, 28, 28});
  Rng rng(5);
  in.fill_uniform(rng, 0, 1);
  const Tensor clean = qnet.forward(in);
  qnet.restore_masters();

  ProtectedNetwork pnet(qnet, config_for(ProtectionPolicy::kRetryClamp));
  pnet.calibrate_envelopes(f.split.test.images);
  // Transient: corrupts site 2 on its first execution only; the retry
  // re-runs the layer fault-free.
  int hits = 0;
  quant::ForwardHooks hooks;
  hooks.on_accumulator = [&hits](std::size_t site, Tensor& values) {
    if (site == 2 && hits++ == 0) values.data()[0] = 1e7f;
  };
  qnet.set_forward_hooks(hooks);
  const Tensor recovered = pnet.forward(in);
  for (std::int64_t i = 0; i < clean.count(); ++i)
    ASSERT_EQ(recovered[i], clean[i]);
  EXPECT_EQ(pnet.counters().layer_retries, 1);
  EXPECT_EQ(pnet.counters().clamped, 0);
  EXPECT_EQ(pnet.counters().degraded_forwards, 0);
  EXPECT_FALSE(pnet.last_forward_degraded());
  qnet.clear_forward_hooks();
  qnet.restore_masters();
}

TEST(ProtectedNetwork, RetryExhaustionDegradesGracefully) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::float_config());
  qnet.calibrate(f.split.train.images);
  ProtectionConfig pc = config_for(ProtectionPolicy::kRetryClamp);
  pc.max_layer_retries = 2;
  ProtectedNetwork pnet(qnet, pc);
  pnet.calibrate_envelopes(f.split.test.images);

  quant::ForwardHooks hooks;
  hooks.on_accumulator = [](std::size_t site, Tensor& values) {
    if (site == 2) values.data()[0] = 1e7f;  // hard fault: every attempt
  };
  qnet.set_forward_hooks(hooks);
  Tensor in(Shape{2, 1, 28, 28});
  Rng rng(5);
  in.fill_uniform(rng, 0, 1);
  (void)pnet.forward(in);
  EXPECT_EQ(pnet.counters().layer_retries, 2);
  EXPECT_GT(pnet.counters().clamped, 0);
  EXPECT_EQ(pnet.counters().degraded_forwards, 1);
  EXPECT_TRUE(pnet.last_forward_degraded());
  qnet.clear_forward_hooks();
  qnet.restore_masters();
}

TEST(ProtectedNetwork, CoarseFormatsAlwaysVoteAndOutrunBlindDetection) {
  // At 4-bit data widths an upset almost always lands back inside the
  // clean activation range, so envelope detection never fires — the
  // escalation must vote every layer instead. Corrupt one draw with an
  // IN-envelope value (0 is always representable): range guards report
  // nothing, yet the median across redundant executions discards it.
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(4, 4));
  qnet.calibrate(f.split.train.images);

  // Envelope-covered input: calibration runs over these same images, so
  // a fault-free forward is guaranteed violation-free.
  const Tensor& in = f.split.test.images;
  const Tensor clean = qnet.forward(in);
  qnet.restore_masters();

  ProtectionConfig pc = config_for(ProtectionPolicy::kRetryClamp);
  ASSERT_LE(4, pc.always_vote_data_bits);  // fixed(4,4) must escalate
  ProtectedNetwork pnet(qnet, pc);
  pnet.calibrate_envelopes(f.split.test.images);

  int hits = 0;
  quant::ForwardHooks hooks;
  hooks.on_quantized_site = [&hits](std::size_t site, Tensor& values) {
    if (site == 2 && hits++ == 0) values.data()[0] = 0.0f;
  };
  qnet.set_forward_hooks(hooks);
  const Tensor voted = pnet.forward(in);
  for (std::int64_t i = 0; i < clean.count(); ++i)
    ASSERT_EQ(voted[i], clean[i]);
  // Every layer ran 1 + max_layer_retries times, yet detection saw
  // nothing: the recovery came from the vote alone.
  const std::int64_t layers =
      static_cast<std::int64_t>(f.net->num_layers());
  EXPECT_EQ(pnet.counters().layer_retries, layers * pc.max_layer_retries);
  EXPECT_EQ(pnet.counters().out_of_envelope, 0);
  EXPECT_EQ(pnet.counters().clamped, 0);
  EXPECT_EQ(pnet.counters().degraded_forwards, 0);
  qnet.clear_forward_hooks();
  qnet.restore_masters();

  // The escalation is gated by the knob: with it disabled the same
  // in-envelope corruption is invisible and nothing is re-executed.
  ProtectionConfig off = pc;
  off.always_vote_data_bits = 0;
  ProtectedNetwork plain(qnet, off);
  plain.calibrate_envelopes(f.split.test.images);
  hits = 0;
  qnet.set_forward_hooks(hooks);
  (void)plain.forward(in);
  EXPECT_EQ(plain.counters().layer_retries, 0);
  EXPECT_EQ(plain.counters().out_of_envelope, 0);
  qnet.clear_forward_hooks();
  qnet.restore_masters();
}

// --- protected campaigns ------------------------------------------------

TEST(ProtectedCampaign, DetectOnlySeesTheSameFaultStreamAsOff) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(8, 8));
  qnet.calibrate(f.split.train.images);

  faults::CampaignConfig cc;
  cc.trials = 3;
  cc.bit_error_rate = 1e-3;
  cc.seed = 2024;
  const faults::CampaignResult off = run_fault_campaign(qnet, f.split.test,
                                                        cc);
  cc.protection.policy = ProtectionPolicy::kDetectOnly;
  const faults::CampaignResult detect =
      run_fault_campaign(qnet, f.split.test, cc);

  // Counting is observation-only: the detect-only campaign reproduces
  // the unprotected accuracy trajectory bit for bit.
  EXPECT_DOUBLE_EQ(detect.mean_accuracy, off.mean_accuracy);
  EXPECT_DOUBLE_EQ(detect.min_accuracy, off.min_accuracy);
  EXPECT_DOUBLE_EQ(detect.max_accuracy, off.max_accuracy);
  EXPECT_EQ(detect.total_flips, off.total_flips);
  EXPECT_GT(detect.protection.values, 0);
  EXPECT_EQ(off.protection, protect::ProtectionCounters{});
}

TEST(ProtectedCampaign, RetryClampIsDeterministicAndRestoresState) {
  ProtectFixture& f = fixture();
  quant::QuantizedNetwork qnet(*f.net, quant::fixed_config(8, 8));
  qnet.calibrate(f.split.train.images);
  const double clean = nn::evaluate(qnet, f.split.test);
  qnet.restore_masters();

  faults::CampaignConfig cc;
  cc.trials = 3;
  cc.bit_error_rate = 1e-3;
  cc.seed = 2024;
  cc.protection.policy = ProtectionPolicy::kRetryClamp;
  const faults::CampaignResult r1 = run_fault_campaign(qnet, f.split.test,
                                                       cc);
  const faults::CampaignResult r2 = run_fault_campaign(qnet, f.split.test,
                                                       cc);
  EXPECT_DOUBLE_EQ(r1.mean_accuracy, r2.mean_accuracy);
  EXPECT_DOUBLE_EQ(r1.min_accuracy, r2.min_accuracy);
  EXPECT_EQ(r1.total_flips, r2.total_flips);
  EXPECT_EQ(r1.protection, r2.protection);
  EXPECT_GT(r1.protection.values, 0);

  // Hooks cleared + masters restored: clean accuracy reproduces.
  EXPECT_DOUBLE_EQ(nn::evaluate(qnet, f.split.test), clean);
}

}  // namespace
}  // namespace qnn::protect
