// Guards for process-wide settings a test changes (each undoes its
// change however the test body exits), and the SIMD levels to sweep.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "tensor/microkernel.h"
#include "util/thread_pool.h"

namespace qnn {

// Saves one environment variable and restores it on destruction. Every
// change also drops the cached QNN_SIMD resolution, so the next kernel
// dispatch re-reads the environment.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      set(*saved_);
    } else {
      unset();
    }
  }
  void set(const std::string& value) {
    ::setenv(name_, value.c_str(), 1);
    refresh_simd_env();
  }
  void unset() {
    ::unsetenv(name_);
    refresh_simd_env();
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Every SIMD level this CPU can run, scalar first.
inline std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel l : {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_supports(l)) levels.push_back(l);
  return levels;
}

// Restores the global pool to its environment size.
struct ThreadGuard {
  ~ThreadGuard() { ThreadPool::set_global_threads(ThreadPool::env_threads()); }
};

// Leaves the span tracer disabled and empty.
struct TraceGuard {
  ~TraceGuard() {
    obs::set_trace_enabled(false);
    obs::clear_trace();
  }
};

}  // namespace qnn
