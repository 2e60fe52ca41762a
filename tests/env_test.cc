// Every QNN_* environment variable read through util/env, in one table:
// each spelling resolves to its value, unset / empty / "auto" give the
// default, and garbage warns exactly once and falls back.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/bench_common.h"
#include "test_env.h"
#include "util/logging.h"

namespace qnn {
namespace {

// Reads QNN_TRACE afresh: trace_enabled() resolves it once per process.
std::string trace_from_env() {
  TraceGuard off_afterwards;
  obs::detail::g_trace_state.store(-1, std::memory_order_relaxed);
  return obs::trace_enabled() ? "on" : "off";
}

struct EnvRow {
  const char* name;
  std::function<std::string()> resolve;  // the value the program sees now
  std::string fallback;  // what unset, empty, "auto" and garbage give
  std::vector<std::pair<std::string, std::string>> spellings;
  std::vector<std::string> garbage;
};

std::vector<EnvRow> env_table() {
  const auto simd = [](SimdLevel l) {
    return simd_level_name(std::min(l, simd_support()));
  };
  const std::vector<std::pair<std::string, std::string>> on_off = {
      {"1", "on"}, {"on", "on"}, {"0", "off"}, {"off", "off"}};
  return {
      {"QNN_THREADS",
       [] { return std::to_string(ThreadPool::env_threads()); },
       std::to_string(std::max(1u, std::thread::hardware_concurrency())),
       {{"3", "3"}, {"1", "1"}, {"+2", "2"}, {" 4", "4"}, {"0004", "4"},
        {"4096", "4096"}},
       {"abc", "0", "-3", "4x", "1e9", "4097", "99999999999999999999"}},
      {"QNN_SIMD",
       [] { return std::string(simd_level_name(resolve_simd_level())); },
       simd_level_name(simd_support()),
       {{"off", "scalar"},
        {"scalar", "scalar"},
        {"avx2", simd(SimdLevel::kAvx2)},
        {"avx512", simd(SimdLevel::kAvx512)}},
       {"bogus", "AVX2"}},
      {"QNN_TRACE", trace_from_env, "off", on_off, {"yes", "2"}},
      {"QNN_LOG_LEVEL",
       [] { return std::string(log_level_name(env_log_threshold())); },
       "INFO",
       {{"debug", "DEBUG"}, {"DEBUG", "DEBUG"}, {"Info", "INFO"},
        {"warn", "WARN"}, {"warning", "WARN"}, {"ERROR", "ERROR"},
        {"0", "DEBUG"}, {"1", "INFO"}, {"2", "WARN"}, {"3", "ERROR"}},
       {"verbose", "4"}},
      {"QNN_BENCH_FAST",
       [] { return std::string(bench::fast_mode() ? "on" : "off"); }, "off",
       on_off, {"yes", "2"}},
      {"QNN_BENCH_SCALE",
       [] { return (std::ostringstream() << bench::bench_scale()).str(); },
       "1",
       {{"2", "2"}, {"0.5", "0.5"}, {"1e-1", "0.1"}, {" 3", "3"}},
       {"abc", "2x", "0", "-1", "nan", "inf"}},
  };
}

TEST(Env, EveryVariableResolvesItsSpellingsAndWarnsOnceOnGarbage) {
  const LogLevel threshold = log_threshold();
  set_log_threshold(LogLevel::kInfo);  // the warnings must reach stderr
  for (const EnvRow& row : env_table()) {
    SCOPED_TRACE(row.name);
    ScopedEnv env(row.name);
    for (const auto& [text, want] : row.spellings) {
      env.set(text);
      EXPECT_EQ(row.resolve(), want) << "spelling \"" << text << "\"";
    }
    env.unset();
    EXPECT_EQ(row.resolve(), row.fallback) << "unset";
    for (const char* text : {"", "auto"}) {
      env.set(text);
      EXPECT_EQ(row.resolve(), row.fallback) << "\"" << text << "\"";
    }

    ::testing::internal::CaptureStderr();
    for (const std::string& text : row.garbage) {
      env.set(text);
      EXPECT_EQ(row.resolve(), row.fallback) << "garbage \"" << text << "\"";
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    const std::string warning = std::string("ignoring ") + row.name + "=";
    EXPECT_EQ(err.find(warning), err.rfind(warning)) << "warned twice";
    EXPECT_NE(err.find(warning + "\"" + row.garbage[0] + "\" (want "),
              std::string::npos) << err;
    EXPECT_NE(err.find("; using "), std::string::npos) << err;
  }
  set_log_threshold(threshold);
}

// "off" used to turn both switches on: they read any value other than
// "0" as on.
TEST(Env, OffTurnsSwitchesOff) {
  ScopedEnv trace("QNN_TRACE");
  trace.set("off");
  EXPECT_EQ(trace_from_env(), "off");
  ScopedEnv fast("QNN_BENCH_FAST");
  fast.set("off");
  EXPECT_FALSE(bench::fast_mode());
}

}  // namespace
}  // namespace qnn
