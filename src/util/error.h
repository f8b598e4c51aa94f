// Error handling helpers shared across the neutral-mc libraries.
//
// The library throws `neutral::Error` (a std::runtime_error) for programmer
// and configuration mistakes.  Hot transport loops never throw; all argument
// checking happens at setup boundaries.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace neutral {

/// Exception type thrown by all neutral-mc components.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A run aborted because a wall-clock deadline expired (cooperative checks
/// at timestep/round boundaries — core/simulation.h).  Kept distinct from
/// Error so schedulers can report `timed_out` rather than a plain failure.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// A run aborted because its cooperative cancel flag was set
/// (core/simulation.h).  Kept distinct from Error so schedulers can report
/// `cancelled` rather than a plain failure.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void fail(const char* expr, const char* file, int line,
                              const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": requirement failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace neutral

/// Precondition check used on configuration/setup paths (never in kernels).
/// Throws neutral::Error with file/line context on failure.
#define NEUTRAL_REQUIRE(expr, msg)                                       \
  do {                                                                   \
    if (!(expr)) ::neutral::detail::fail(#expr, __FILE__, __LINE__, msg); \
  } while (false)
