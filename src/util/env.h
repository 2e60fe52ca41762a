// The one reader of the process environment (README.md tabulates the
// variables). read_env() resolves a variable: unset, empty or "auto"
// give the caller's default; any other value goes through the
// variable's own spelling table or parse function; a value that fails
// it logs one warning per variable — naming the value, the accepted
// spellings and the fallback — and falls back to the default.
// util/env.cc is the only code in src/ and bench/ that reads the
// environment; the `lint` ctest keeps it so.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace qnn::env {

// The set text of `name`, or nullopt when it is unset, empty or "auto".
std::optional<std::string> value(const char* name);

// Logs "ignoring NAME="value" (want ACCEPTED); using FALLBACK" unless
// `name` already warned in this process. The flag is claimed before
// logging, so QNN_LOG_LEVEL, which configures the logger itself,
// re-enters here at most once and then quietly.
void warn_invalid(const char* name, const std::string& value,
                  const std::string& accepted, const std::string& fallback);

// `parse` maps the set text to std::optional<T>; nullopt rejects it.
template <typename T, typename Parse>
T read_env(const char* name, const std::string& accepted, T fallback,
           const std::string& fallback_text, Parse parse) {
  const std::optional<std::string> v = value(name);
  if (!v.has_value()) return fallback;
  if (const std::optional<T> parsed = parse(*v)) return *parsed;
  warn_invalid(name, *v, accepted, fallback_text);
  return fallback;
}

// One exact, case-sensitive spelling of a value.
template <typename T>
struct Spelling {
  const char* text;
  T value;
};

// Reads `name` through a spelling table, which the warning lists.
template <typename T, std::size_t N>
T read_env(const char* name, const Spelling<T> (&table)[N], T fallback,
           const std::string& fallback_text) {
  std::string accepted;
  for (const Spelling<T>& s : table) {
    if (!accepted.empty()) accepted += '|';
    accepted += s.text;
  }
  return read_env(name, accepted, fallback, fallback_text,
                  [&](const std::string& v) -> std::optional<T> {
                    for (const Spelling<T>& s : table)
                      if (v == s.text) return s.value;
                    return std::nullopt;
                  });
}

// The shared on|off|1|0 switch.
bool read_switch(const char* name, bool fallback);

// A base-10 integer in [lo, hi] and nothing after it (strtol rules:
// leading blanks and a sign pass; "1e9", "4x" and overflow do not).
std::optional<long> parse_integer(const std::string& s, long lo, long hi);

// A finite number > 0 and nothing after it (strtod rules).
std::optional<double> parse_positive(const std::string& s);

}  // namespace qnn::env
