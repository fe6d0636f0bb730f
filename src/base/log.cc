#include "src/base/log.h"

namespace enoki {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kDebug:
      return "DEBUG";
  }
  return "?";
}

}  // namespace

void LogImpl(LogLevel level, const char* fmt, ...) {
  std::fprintf(stderr, "[%s] ", LevelName(level));
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n");
}

}  // namespace enoki
