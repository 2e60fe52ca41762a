// Minimal leveled logger writing to stderr.
//
// Usage:  QNN_LOG(Info) << "trained epoch " << e << " acc=" << acc;
// The message is emitted when the temporary dies at the end of the
// statement: the whole line — "[LEVEL HH:MM:SS.mmm tN file:line] text\n"
// — is formatted into one buffer and written with a single fwrite, so
// concurrent threads (sweep points, campaign replicas) can never tear
// each other's lines.
//
// The threshold defaults to Info and can be overridden at startup with
// the QNN_LOG_LEVEL environment variable ("debug"/"info"/"warn"/"error"
// or 0-3; case-insensitive; read through util/env, so garbage warns
// once), read once on first use. set_log_threshold takes precedence
// afterwards.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace qnn {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Global threshold: messages below it are dropped.
LogLevel log_threshold();
// The threshold QNN_LOG_LEVEL asks for, read now (log_threshold()
// starts from it).
LogLevel env_log_threshold();
void set_log_threshold(LogLevel level);

const char* log_level_name(LogLevel level);

// Parses a QNN_LOG_LEVEL spelling ("warn", "WARN", "2", ...); nullopt
// on anything unrecognized.
std::optional<LogLevel> parse_log_level(const std::string& name);

// Small dense id of the calling thread (the "tN" in log prefixes),
// assigned on first use.
int log_thread_id();

// The exact prefix a message from this thread at this site would carry,
// timestamp included: "[INFO 12:34:56.789 t0 sweep.cc:42] ".
std::string format_log_prefix(LogLevel level, const char* file, int line);

namespace detail {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace qnn

#define QNN_LOG(severity)                                        \
  ::qnn::detail::LogMessage(::qnn::LogLevel::k##severity,        \
                            __FILE__, __LINE__)
