// Lightweight CHECK macros.
//
// The simulator is a correctness tool: invariant violations should abort
// loudly in every build type, so these are not compiled out in release mode.

#ifndef SRC_BASE_CHECK_H_
#define SRC_BASE_CHECK_H_

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace enoki {

[[noreturn]] inline void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}

// CheckFailed with a printf-style message, for a check that must name a value.
[[noreturn, gnu::cold, gnu::format(printf, 3, 4)]] inline void CheckFailedF(const char* file,
                                                                           int line,
                                                                           const char* fmt, ...) {
  std::fprintf(stderr, "CHECK failed at %s:%d: ", file, line);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace enoki

#define ENOKI_CHECK(expr)                               \
  do {                                                  \
    if (!(expr)) {                                      \
      ::enoki::CheckFailed(__FILE__, __LINE__, #expr);  \
    }                                                   \
  } while (0)

#define ENOKI_CHECK_MSG(expr, msg)                     \
  do {                                                 \
    if (!(expr)) {                                     \
      ::enoki::CheckFailed(__FILE__, __LINE__, (msg)); \
    }                                                  \
  } while (0)

#define ENOKI_CHECKF(expr, fmt, ...)                                 \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::enoki::CheckFailedF(__FILE__, __LINE__, (fmt), __VA_ARGS__); \
    }                                                                \
  } while (0)

#endif  // SRC_BASE_CHECK_H_
