// Tests for the observability layer (DESIGN.md §11): metrics registry
// fold math and bucket edges, tracer span recording and chrome-trace
// JSON shape, RunReport document structure, and the GuardCounters
// classification partition the telemetry reports on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quant/guards.h"
#include "tensor/microkernel.h"
#include "test_env.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace qnn {
namespace {

// --- metrics registry --------------------------------------------------

TEST(ObsMetrics, CounterFoldsExactlyAcrossThreads) {
  ThreadGuard guard;
  obs::Registry reg;
  obs::Counter c = reg.counter("test.adds");
  ThreadPool::set_global_threads(8);
  const std::int64_t n = 1000;
  parallel_run(n, [&](std::int64_t i) { c.add(i + 1); });
  const obs::Snapshot snap = reg.snapshot();
  const obs::MetricSnapshot* m = snap.find("test.adds");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, obs::MetricKind::kCounter);
  EXPECT_EQ(m->value, n * (n + 1) / 2);  // exact: integer stripe fold
}

TEST(ObsMetrics, RepeatedRegistrationSharesStorage) {
  obs::Registry reg;
  obs::Counter a = reg.counter("same");
  obs::Counter b = reg.counter("same");
  a.inc();
  b.inc();
  EXPECT_EQ(reg.snapshot().find("same")->value, 2);
  EXPECT_EQ(reg.snapshot().metrics.size(), 1u);
}

TEST(ObsMetrics, KindOrBoundsMismatchThrows) {
  obs::Registry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), CheckError);
  EXPECT_THROW(reg.histogram("m", {1, 2}), CheckError);
  reg.histogram("h", {1, 2, 4});
  EXPECT_THROW(reg.histogram("h", {1, 2, 8}), CheckError);
  EXPECT_NO_THROW(reg.histogram("h", {1, 2, 4}));
  EXPECT_THROW(reg.counter(""), CheckError);
  EXPECT_THROW(reg.histogram("desc", {4, 2, 1}), CheckError);
}

TEST(ObsMetrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("lat", {1, 2, 4});
  // Bucket i counts v <= bounds[i]; above the last bound is overflow.
  h.observe(0);  // bucket 0
  h.observe(1);  // bucket 0 (inclusive edge)
  h.observe(2);  // bucket 1
  h.observe(3);  // bucket 2
  h.observe(4);  // bucket 2 (inclusive edge)
  h.observe(5);  // overflow
  const obs::Snapshot snap = reg.snapshot();
  const obs::MetricSnapshot* m = snap.find("lat");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(m->buckets[0], 2);
  EXPECT_EQ(m->buckets[1], 1);
  EXPECT_EQ(m->buckets[2], 2);
  EXPECT_EQ(m->buckets[3], 1);
  EXPECT_EQ(m->count, 6);
  EXPECT_EQ(m->sum, 0 + 1 + 2 + 3 + 4 + 5);
  EXPECT_DOUBLE_EQ(m->mean(), 15.0 / 6.0);
}

TEST(ObsMetrics, HistogramFoldsExactlyAcrossThreads) {
  ThreadGuard guard;
  obs::Registry reg;
  obs::Histogram h = reg.histogram("par", obs::exponential_bounds(1024));
  ThreadPool::set_global_threads(8);
  const std::int64_t n = 500;
  parallel_run(n, [&](std::int64_t i) { h.observe(i); });
  const obs::Snapshot snap = reg.snapshot();
  const obs::MetricSnapshot* m = snap.find("par");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, n);
  EXPECT_EQ(m->sum, n * (n - 1) / 2);
}

TEST(ObsMetrics, GaugeLastWriteWinsAndAdds) {
  obs::Registry reg;
  obs::Gauge g = reg.gauge("depth");
  g.set(7);
  EXPECT_EQ(reg.snapshot().find("depth")->value, 7);
  g.set(3);
  g.add(2);
  EXPECT_EQ(reg.snapshot().find("depth")->value, 5);
}

TEST(ObsMetrics, ResetZeroesButKeepsRegistrations) {
  obs::Registry reg;
  obs::Counter c = reg.counter("r");
  c.add(9);
  reg.reset();
  EXPECT_EQ(reg.snapshot().find("r")->value, 0);
  c.inc();  // handle survives the reset
  EXPECT_EQ(reg.snapshot().find("r")->value, 1);
}

TEST(ObsMetrics, SnapshotIsSortedAndSerializes) {
  obs::Registry reg;
  reg.counter("zz");
  reg.counter("aa");
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  EXPECT_EQ(snap.metrics[0].name, "aa");
  EXPECT_EQ(snap.metrics[1].name, "zz");
  const json::Value round =
      json::parse(snap.to_json().dump(), "snapshot");
  EXPECT_EQ(round.size(), 2u);
  EXPECT_EQ(round.at(std::size_t{0}).at("kind").as_string(), "counter");
}

TEST(ObsMetrics, ExponentialBounds) {
  EXPECT_EQ(obs::exponential_bounds(8),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(obs::exponential_bounds(10),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(obs::exponential_bounds(1), (std::vector<std::int64_t>{1}));
}

TEST(ObsMetrics, GlobalRegistryIsAProcessSingleton) {
  EXPECT_EQ(&obs::Registry::global(), &obs::Registry::global());
}

// --- histogram quantiles -----------------------------------------------

// Hand-built snapshot for quantile goldens; count is derived.
obs::MetricSnapshot hist_snapshot(std::vector<std::int64_t> bounds,
                                  std::vector<std::int64_t> buckets) {
  obs::MetricSnapshot m;
  m.name = "golden";
  m.kind = obs::MetricKind::kHistogram;
  m.bounds = std::move(bounds);
  m.buckets = std::move(buckets);
  for (std::int64_t b : m.buckets) m.count += b;
  return m;
}

// Golden values for the documented fixed-bucket linear interpolation:
// samples in bucket i are uniform over (lo, hi], target rank q * count.
TEST(ObsMetrics, QuantileGoldenSingleBucket) {
  const obs::MetricSnapshot m = hist_snapshot({10}, {4, 0});
  EXPECT_DOUBLE_EQ(m.quantile(0.0), 0.0);    // rank 0: bucket floor
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 5.0);    // rank 2 of 4: halfway
  EXPECT_DOUBLE_EQ(m.quantile(0.25), 2.5);   // rank 1 of 4
  EXPECT_DOUBLE_EQ(m.quantile(1.0), 10.0);   // rank 4: bucket ceiling
}

TEST(ObsMetrics, QuantileGoldenInterpolatesAcrossBuckets) {
  const obs::MetricSnapshot m = hist_snapshot({10, 20}, {2, 2, 0});
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 10.0);   // rank 2 exhausts bucket 0
  EXPECT_DOUBLE_EQ(m.quantile(0.75), 15.0);  // rank 3: half of (10, 20]
  EXPECT_DOUBLE_EQ(m.quantile(1.0), 20.0);
}

TEST(ObsMetrics, QuantileGoldenSkipsEmptyBuckets) {
  const obs::MetricSnapshot m =
      hist_snapshot({1, 2, 4, 8}, {0, 3, 0, 1, 0});
  // Rank 1 of 4 lands a third into bucket (1, 2].
  EXPECT_DOUBLE_EQ(m.quantile(0.25), 1.0 + 1.0 / 3.0);
  // Rank 4 lands in bucket (4, 8] after skipping the empty (2, 4].
  EXPECT_DOUBLE_EQ(m.quantile(1.0), 8.0);
}

TEST(ObsMetrics, QuantileOverflowClampsToLastFiniteBound) {
  const obs::MetricSnapshot m = hist_snapshot({10, 20}, {0, 0, 5});
  // The overflow bucket has no upper bound: documented under-estimate.
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.99), 20.0);
}

TEST(ObsMetrics, QuantileEmptyHistogramReturnsSentinel) {
  // No samples means no defined quantile: the sentinel, not a fake 0
  // that downstream consumers could mistake for a real measurement.
  const obs::MetricSnapshot m = hist_snapshot({10}, {0, 0});
  EXPECT_DOUBLE_EQ(m.quantile(0.0), obs::kQuantileNoSamples);
  EXPECT_DOUBLE_EQ(m.quantile(0.5), obs::kQuantileNoSamples);
  EXPECT_DOUBLE_EQ(m.quantile(1.0), obs::kQuantileNoSamples);
}

TEST(ObsMetrics, QuantileBoundlessOverflowReturnsSentinel) {
  // All mass in the overflow bucket of a histogram with no finite
  // bounds: there is no bound to clamp to, so the sentinel again.
  const obs::MetricSnapshot m = hist_snapshot({}, {5});
  EXPECT_DOUBLE_EQ(m.quantile(0.5), obs::kQuantileNoSamples);
  EXPECT_DOUBLE_EQ(m.quantile(1.0), obs::kQuantileNoSamples);
}

TEST(ObsMetrics, StripeStatsReportOccupancyInvariants) {
  const int before = obs::stripe_stats().threads_registered;
  // Each fresh thread's first metric touch registers it exactly once.
  obs::Registry reg;
  obs::Counter c = reg.counter("stripe.poke");
  std::vector<std::thread> pokes;
  for (int i = 0; i < 3; ++i) pokes.emplace_back([&c] { c.inc(); });
  for (std::thread& t : pokes) t.join();
  const obs::StripeStats s = obs::stripe_stats();
  EXPECT_EQ(s.stripes, obs::kMetricStripes);
  EXPECT_GE(s.threads_registered, before + 3);
  EXPECT_EQ(s.stripes_occupied, std::min(s.threads_registered, s.stripes));
  EXPECT_EQ(s.aliased_threads, std::max(0, s.threads_registered - s.stripes));
}

TEST(ObsMetrics, QuantileChecksKindAndRange) {
  obs::MetricSnapshot counter;
  counter.kind = obs::MetricKind::kCounter;
  EXPECT_THROW(counter.quantile(0.5), CheckError);
  const obs::MetricSnapshot m = hist_snapshot({10}, {1, 0});
  EXPECT_THROW(m.quantile(-0.1), CheckError);
  EXPECT_THROW(m.quantile(1.1), CheckError);
}

TEST(ObsMetrics, SnapshotQuantileEndToEnd) {
  obs::Registry reg;
  obs::Histogram h = reg.histogram("q.lat", {1, 2, 4, 8});
  for (std::int64_t v = 1; v <= 8; ++v) h.observe(v);
  // Buckets: {1, 1, 2, 4} — p50 exhausts (2, 4], p100 exhausts (4, 8].
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile("q.lat", 0.5), 4.0);
  EXPECT_DOUBLE_EQ(snap.quantile("q.lat", 1.0), 8.0);
  EXPECT_THROW(snap.quantile("missing", 0.5), CheckError);
  reg.counter("q.not_hist").inc();
  EXPECT_THROW(reg.snapshot().quantile("q.not_hist", 0.5), CheckError);
}

// --- tracer ------------------------------------------------------------

// Pulls the "X" (complete span) events out of a chrome-trace document.
std::vector<json::Value> span_events(const json::Value& trace) {
  std::vector<json::Value> spans;
  for (const json::Value& e : trace.at("traceEvents").items())
    if (e.at("ph").as_string() == "X") spans.push_back(e);
  return spans;
}

TEST(ObsTrace, DisabledRecordsNothing) {
  TraceGuard guard;
  obs::set_trace_enabled(false);
  obs::clear_trace();
  const std::int64_t before = obs::trace_event_count();
  {
    QNN_SPAN("ignored", "test");
  }
  EXPECT_EQ(obs::trace_event_count(), before);
}

TEST(ObsTrace, SpanNestingIsContainedAndArgsExport) {
  TraceGuard guard;
  obs::set_trace_enabled(true);
  obs::clear_trace();
  {
    QNN_SPAN("outer", "test");
    {
      QNN_SPAN_N("inner", "test", 7);
    }
  }
  const json::Value trace = obs::trace_to_json();
  const auto spans = span_events(trace);
  ASSERT_EQ(spans.size(), 2u);
  const json::Value* outer = nullptr;
  const json::Value* inner = nullptr;
  for (const json::Value& s : spans) {
    if (s.at("name").as_string() == "outer") outer = &s;
    if (s.at("name").as_string() == "inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // RAII containment: the inner span starts no earlier and ends no later
  // than the outer span that encloses it.
  const double o0 = outer->at("ts").as_double();
  const double o1 = o0 + outer->at("dur").as_double();
  const double i0 = inner->at("ts").as_double();
  const double i1 = i0 + inner->at("dur").as_double();
  EXPECT_GE(i0, o0);
  EXPECT_LE(i1, o1);
  EXPECT_EQ(inner->at("args").at("n").as_int(), 7);
  EXPECT_FALSE(outer->contains("args"));  // negative arg: no args object
}

TEST(ObsTrace, JsonIsWellFormedChromeTraceFormat) {
  TraceGuard guard;
  obs::set_trace_enabled(true);
  obs::clear_trace();
  {
    QNN_SPAN("a", "cat_a");
  }
  // Round-trip through the parser: the writer must emit valid JSON.
  const json::Value trace =
      json::parse(obs::trace_to_json().dump(), "trace");
  EXPECT_EQ(trace.at("displayTimeUnit").as_string(), "ms");
  bool has_thread_name_meta = false;
  for (const json::Value& e : trace.at("traceEvents").items()) {
    const std::string ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "X" || ph == "M");
    EXPECT_TRUE(e.contains("pid"));
    EXPECT_TRUE(e.contains("tid"));
    if (ph == "M") {
      has_thread_name_meta = true;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
    } else {
      EXPECT_TRUE(e.contains("cat"));
      EXPECT_GE(e.at("dur").as_double(), 0.0);
    }
  }
  EXPECT_TRUE(has_thread_name_meta);
}

TEST(ObsTrace, RingKeepsNewestAndCountsDropped) {
  TraceGuard guard;
  obs::set_trace_enabled(true);
  const std::size_t prev_capacity = obs::trace_buffer_capacity();
  obs::set_trace_buffer_capacity(4);
  const std::int64_t dropped_before = obs::trace_dropped_count();
  // Capacity applies to buffers created after the call, so record from a
  // fresh thread.
  std::thread recorder([] {
    for (int i = 0; i < 10; ++i) {
      QNN_SPAN_N("wrap", "test", i);
    }
  });
  recorder.join();
  obs::set_trace_buffer_capacity(prev_capacity);
  EXPECT_EQ(obs::trace_dropped_count() - dropped_before, 6);
  // The surviving events are the newest ones, exported oldest-first.
  std::vector<std::int64_t> args;
  for (const json::Value& s : span_events(obs::trace_to_json()))
    if (s.at("name").as_string() == "wrap")
      args.push_back(s.at("args").at("n").as_int());
  EXPECT_EQ(args, (std::vector<std::int64_t>{6, 7, 8, 9}));
}

TEST(ObsTrace, BufferStatsBreakDownOccupancyPerThread) {
  TraceGuard guard;
  obs::set_trace_enabled(true);
  const std::size_t prev_capacity = obs::trace_buffer_capacity();
  obs::set_trace_buffer_capacity(2);
  // A fresh thread gets a capacity-2 ring; 5 spans keep 2, drop 3.
  std::thread recorder([] {
    for (int i = 0; i < 5; ++i) {
      QNN_SPAN_N("stats", "test", i);
    }
  });
  recorder.join();
  obs::set_trace_buffer_capacity(prev_capacity);
  std::int64_t buffered = 0, dropped = 0;
  bool found = false;
  for (const obs::TraceBufferStats& s : obs::trace_buffer_stats()) {
    EXPECT_LE(s.buffered, s.capacity);
    buffered += s.buffered;
    dropped += s.dropped;
    if (s.capacity == 2 && s.buffered == 2 && s.dropped == 3) found = true;
  }
  EXPECT_TRUE(found) << "the fresh ring must report 2 kept / 3 dropped";
  // The per-thread breakdown sums to the process-wide totals.
  EXPECT_EQ(buffered, obs::trace_event_count());
  EXPECT_EQ(dropped, obs::trace_dropped_count());
}

// --- run report --------------------------------------------------------

TEST(ObsReport, IntPathSectionCarriesTheStagePlan) {
  quant::IntPathPlan plan;
  plan.stages.push_back({3, "conv", 8, quant::IntTier::kDot8, 21, true, "",
                         quant::IntEpilogueWidth::kI32});
  plan.stages.push_back({7, "ip", 16, quant::IntTier::kExact64, 40, false,
                         "weight word -32768"});
  obs::RunReport report("t");
  report.set("int_path", obs::to_json(plan));
  const json::Value doc = json::parse(report.dump());
  const json::Value& stages = doc.at("int_path");
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages.at(0).at("layer").as_int(), 3);
  EXPECT_EQ(stages.at(0).at("kind").as_string(), "conv");
  EXPECT_EQ(stages.at(0).at("tier").as_string(), "s8dot-i32");
  EXPECT_EQ(stages.at(0).at("acc_bits").as_int(), 21);
  EXPECT_TRUE(stages.at(0).at("fused_relu").as_bool());
  EXPECT_EQ(stages.at(1).at("word_bits").as_int(), 16);
  EXPECT_EQ(stages.at(1).at("tier").as_string(), "exact-i64");
  EXPECT_EQ(stages.at(1).at("fallback").as_string(), "weight word -32768");
  EXPECT_EQ(stages.at(0).at("epilogue").as_string(), "i32");
  EXPECT_EQ(stages.at(1).at("epilogue").as_string(), "i64");
}

TEST(ObsReport, DocumentRoundTripsWithSections) {
  obs::RunReport report("obs_test");
  quant::GuardCounters guards;
  guards.observe(0.5f, 1.0);
  guards.observe(2.0f, 1.0);
  report.add_guards("guards", guards);
  protect::ProtectionCounters prot;
  prot.values = 10;
  prot.abft.blocks_checked = 3;
  report.add_protection("protection", prot);
  report.set("custom", json::Value(42));
  report.add_trace_summary();

  const json::Value doc = json::parse(report.dump(), "report");
  EXPECT_EQ(doc.at("schema").as_string(), "qnn.run_report/1");
  EXPECT_EQ(doc.at("tool").as_string(), "obs_test");
  EXPECT_GE(doc.at("threads").as_int(), 1);
  EXPECT_EQ(doc.at("guards").at("values").as_int(), 2);
  EXPECT_EQ(doc.at("guards").at("saturated").as_int(), 1);
  EXPECT_EQ(doc.at("protection").at("abft").at("blocks_checked").as_int(),
            3);
  EXPECT_EQ(doc.at("custom").as_int(), 42);
  EXPECT_TRUE(doc.at("trace").contains("enabled"));
}

TEST(ObsReport, HeaderStatesSimdLevelAndCrcKernel) {
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    const json::Value doc =
        json::parse(obs::RunReport("obs_test").dump(), "report");
    EXPECT_EQ(doc.at("simd_level").as_string(), "scalar");
  }
  const json::Value doc =
      json::parse(obs::RunReport("obs_test").dump(), "report");
  EXPECT_EQ(doc.at("simd_level").as_string(),
            simd_level_name(active_simd_level()));
  const std::string kernel = doc.at("crc32_kernel").as_string();
  EXPECT_EQ(kernel, crc32_kernel());
  EXPECT_TRUE(kernel == "clmul" || kernel == "table") << kernel;
}

TEST(ObsReport, TraceAndRegistrySectionsCarryOccupancy) {
  obs::RunReport report("obs_test");
  report.add_trace_summary();
  report.add_registry_summary();
  const json::Value doc = json::parse(report.dump(), "report");

  const json::Value& trace = doc.at("trace");
  EXPECT_TRUE(trace.contains("capacity"));
  ASSERT_TRUE(trace.contains("per_thread"));
  std::int64_t buffered = 0, dropped = 0;
  for (const json::Value& t : trace.at("per_thread").items()) {
    EXPECT_LE(t.at("buffered").as_int(), t.at("capacity").as_int());
    buffered += t.at("buffered").as_int();
    dropped += t.at("dropped").as_int();
  }
  EXPECT_EQ(buffered, trace.at("events").as_int());
  EXPECT_EQ(dropped, trace.at("dropped").as_int());

  const json::Value& registry = doc.at("registry");
  EXPECT_EQ(registry.at("stripes").as_int(), obs::kMetricStripes);
  EXPECT_GE(registry.at("threads_registered").as_int(), 0);
  EXPECT_EQ(registry.at("stripes_occupied").as_int(),
            std::min<std::int64_t>(registry.at("threads_registered").as_int(),
                                   obs::kMetricStripes));
  EXPECT_GE(registry.at("aliased_threads").as_int(), 0);
}

TEST(ObsReport, MetricsSectionFoldsARegistry) {
  obs::Registry reg;
  reg.counter("only.metric").add(5);
  obs::RunReport report("obs_test");
  report.add_metrics(reg);
  const json::Value doc = json::parse(report.dump(), "report");
  ASSERT_EQ(doc.at("metrics").size(), 1u);
  EXPECT_EQ(doc.at("metrics").at(std::size_t{0}).at("value").as_int(), 5);
}

// --- guard counter partition -------------------------------------------

TEST(ObsGuards, ClassificationIsAnExclusivePartition) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::nanf("");
  // Every value lands in exactly one class.
  EXPECT_EQ(quant::classify_guard(0.5f, 1.0), quant::GuardClass::kOk);
  EXPECT_EQ(quant::classify_guard(1.0f, 1.0), quant::GuardClass::kOk);
  EXPECT_EQ(quant::classify_guard(2.0f, 1.0),
            quant::GuardClass::kSaturated);
  EXPECT_EQ(quant::classify_guard(-2.0f, 1.0),
            quant::GuardClass::kSaturated);
  EXPECT_EQ(quant::classify_guard(nan, 1.0), quant::GuardClass::kNan);
  // Inf exceeds every finite limit but is classified as inf ONLY.
  EXPECT_EQ(quant::classify_guard(kInf, 1.0), quant::GuardClass::kInf);
  EXPECT_EQ(quant::classify_guard(-kInf, 1.0), quant::GuardClass::kInf);
  // Unbounded format (limit <= 0): nothing finite saturates.
  EXPECT_EQ(quant::classify_guard(1e30f, 0.0), quant::GuardClass::kOk);
  EXPECT_EQ(quant::classify_guard(kInf, 0.0), quant::GuardClass::kInf);
}

TEST(ObsGuards, ObserveCountsEachValueExactlyOnce) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  quant::GuardCounters g;
  g.observe(0.5f, 1.0);    // ok
  g.observe(2.0f, 1.0);    // saturated
  g.observe(std::nanf(""), 1.0);  // nan
  g.observe(kInf, 1.0);    // inf (not also saturated)
  g.observe(-kInf, 1.0);   // inf
  EXPECT_EQ(g.values, 5);
  EXPECT_EQ(g.saturated, 1);
  EXPECT_EQ(g.nan, 1);
  EXPECT_EQ(g.inf, 2);
  // The anomaly counters partition the anomalies: their sum can never
  // exceed the number of values inspected.
  EXPECT_EQ(g.saturated + g.nan + g.inf, 4);
  EXPECT_FALSE(g.clean());
  EXPECT_DOUBLE_EQ(g.saturation_rate(), 1.0 / 5.0);
}

}  // namespace
}  // namespace qnn
