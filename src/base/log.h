// Minimal leveled logging to stderr. The threshold is fixed at compile time
// (warnings and errors), so benchmark output stays clean and a message above
// it costs nothing.

#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <cstdarg>
#include <cstdio>

namespace enoki {

enum class LogLevel : int {
  kError = 0,
  kWarn = 1,
  kInfo = 2,
  kDebug = 3,
};

inline constexpr LogLevel kLogLevel = LogLevel::kWarn;

void LogImpl(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace enoki

#define ENOKI_LOG(level, ...)                             \
  do {                                                    \
    if constexpr (static_cast<int>(level) <=              \
                  static_cast<int>(::enoki::kLogLevel)) { \
      ::enoki::LogImpl((level), __VA_ARGS__);             \
    }                                                     \
  } while (0)

#define ENOKI_ERROR(...) ENOKI_LOG(::enoki::LogLevel::kError, __VA_ARGS__)
#define ENOKI_WARN(...) ENOKI_LOG(::enoki::LogLevel::kWarn, __VA_ARGS__)
#define ENOKI_INFO(...) ENOKI_LOG(::enoki::LogLevel::kInfo, __VA_ARGS__)
#define ENOKI_DEBUG(...) ENOKI_LOG(::enoki::LogLevel::kDebug, __VA_ARGS__)

#endif  // SRC_BASE_LOG_H_
