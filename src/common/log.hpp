// Minimal leveled logger.  Off by default; tests and examples raise the level
// to trace protocol events.  Thread-safe: the level is a relaxed atomic and
// line writes are mutex-serialized — the sweep scheduler logs from worker
// threads, so lines from concurrent points must not interleave mid-line.
#pragma once

#include <sstream>
#include <string>

namespace hm {

enum class LogLevel : int {
  Off = 0,
  Error = 1,
  Warn = 2,
  Info = 3,
  Debug = 4,
};

class Log {
 public:
  static LogLevel level();
  static void set_level(LogLevel lvl);
  static void write(LogLevel lvl, const std::string& msg);
  static bool enabled(LogLevel lvl) { return static_cast<int>(lvl) <= static_cast<int>(level()); }
};

}  // namespace hm

#define HM_LOG(lvl, expr)                                        \
  do {                                                           \
    if (::hm::Log::enabled(lvl)) {                               \
      std::ostringstream hm_log_oss__;                           \
      hm_log_oss__ << expr;                                      \
      ::hm::Log::write(lvl, hm_log_oss__.str());                 \
    }                                                            \
  } while (0)

#define HM_DEBUG(expr) HM_LOG(::hm::LogLevel::Debug, expr)
#define HM_INFO(expr) HM_LOG(::hm::LogLevel::Info, expr)
#define HM_WARN(expr) HM_LOG(::hm::LogLevel::Warn, expr)
#define HM_ERROR(expr) HM_LOG(::hm::LogLevel::Error, expr)
