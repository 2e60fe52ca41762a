#include "util/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>

#include "util/logging.h"

namespace qnn::env {

std::optional<std::string> value(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0' || std::string(v) == "auto")
    return std::nullopt;
  return std::string(v);
}

void warn_invalid(const char* name, const std::string& value,
                  const std::string& accepted, const std::string& fallback) {
  static std::mutex m;
  static std::set<std::string> warned;
  {
    std::lock_guard<std::mutex> lock(m);
    if (!warned.insert(name).second) return;
  }
  QNN_LOG(Warn) << "ignoring " << name << "=\"" << value << "\" (want "
                << accepted << "); using " << fallback;
}

bool read_switch(const char* name, bool fallback) {
  static const Spelling<bool> kSwitch[] = {
      {"on", true}, {"off", false}, {"1", true}, {"0", false}};
  return read_env(name, kSwitch, fallback, fallback ? "on" : "off");
}

std::optional<long> parse_integer(const std::string& s, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(s.c_str(), &end, 10);
  if (errno == ERANGE || end == s.c_str() || *end != '\0' || n < lo ||
      n > hi)
    return std::nullopt;
  return n;
}

std::optional<double> parse_positive(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const double f = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || end == s.c_str() || *end != '\0' ||
      !std::isfinite(f) || f <= 0)
    return std::nullopt;
  return f;
}

}  // namespace qnn::env
