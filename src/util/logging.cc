#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <optional>

#include "util/env.h"

namespace qnn {
namespace {

// Strips the directory part so log lines stay short.
const char* basename_of(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

// -1 until the first log_threshold() reads QNN_LOG_LEVEL.
std::atomic<int> g_threshold{-1};

}  // namespace

LogLevel env_log_threshold() {
  return env::read_env("QNN_LOG_LEVEL",
                       "debug|info|warn|warning|error|0-3, any case",
                       LogLevel::kInfo, "info", parse_log_level);
}

LogLevel log_threshold() {
  int t = g_threshold.load(std::memory_order_relaxed);
  if (t < 0) {
    // A warning about QNN_LOG_LEVEL itself logs through here before the
    // store below; util/env's warn-once flag keeps that inner read
    // quiet, so the recursion ends one level down.
    int unresolved = -1;
    g_threshold.compare_exchange_strong(
        unresolved, static_cast<int>(env_log_threshold()),
        std::memory_order_relaxed);
    t = g_threshold.load(std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(t);
}

void set_log_threshold(LogLevel level) {
  g_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO";
    case LogLevel::kWarn:  return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

std::optional<LogLevel> parse_log_level(const std::string& name) {
  static const env::Spelling<LogLevel> kNames[] = {
      {"debug", LogLevel::kDebug}, {"0", LogLevel::kDebug},
      {"info", LogLevel::kInfo},   {"1", LogLevel::kInfo},
      {"warn", LogLevel::kWarn},   {"warning", LogLevel::kWarn},
      {"2", LogLevel::kWarn},      {"error", LogLevel::kError},
      {"3", LogLevel::kError}};
  std::string lower;
  for (const char c : name)
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  for (const auto& [text, level] : kNames)
    if (lower == text) return level;
  return std::nullopt;
}

int log_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string format_log_prefix(LogLevel level, const char* file, int line) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  localtime_r(&secs, &tm);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "[%s %02d:%02d:%02d.%03d t%d %s:%d] ",
                log_level_name(level), tm.tm_hour, tm.tm_min, tm.tm_sec,
                static_cast<int>(ms), log_thread_id(), basename_of(file),
                line);
  return buf;
}

namespace detail {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= log_threshold()) {
  if (enabled_) stream_ << format_log_prefix(level, file, line);
}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  stream_ << '\n';
  const std::string line = stream_.str();
  // One fwrite per message: POSIX stdio streams lock around each call,
  // so concurrent writers interleave whole lines, never fragments.
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

}  // namespace detail
}  // namespace qnn
