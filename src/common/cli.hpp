// Command-line checks shared by the examples and the benches: a bad count
// prints "usage: ..." to stderr and exits 2 instead of reaching a
// precondition check as a huge or zero value.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace tdp::cli {

/// A whole decimal number with nothing before or after it: "-5", " 5",
/// "1e3" and "12abc" are rejected.
inline bool parse_count(const char* text, std::uint64_t& value) {
  if (*text < '0' || *text > '9') return false;  // strtoull takes "-5"
  errno = 0;
  char* end = nullptr;
  value = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

/// Prints "usage: <argv0> <synopsis>" to stderr and exits 2.
[[noreturn]] inline void exit_with_usage(const char* argv0,
                                         const std::string& synopsis) {
  std::fprintf(stderr, "usage: %s %s\n", argv0, synopsis.c_str());
  std::exit(2);
}

/// argv[1] as a whole user count above zero, or `fallback` when absent. A
/// malformed or zero count, or more than `max_args` arguments, exits
/// through exit_with_usage with `synopsis`.
inline std::uint64_t users_arg(int argc, char** argv, std::uint64_t fallback,
                               int max_args, const char* synopsis) {
  std::uint64_t users = fallback;
  if (argc > max_args + 1 ||
      (argc > 1 && (!parse_count(argv[1], users) || users == 0))) {
    exit_with_usage(argv[0], synopsis);
  }
  return users;
}

}  // namespace tdp::cli
