#ifndef DPCOPULA_TOOLS_FLAGS_H_
#define DPCOPULA_TOOLS_FLAGS_H_

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

namespace dpcopula::tools {

/// Smallest positive double: the lower bound for flags that must be > 0.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/// Parses the numeric value `text` of command-line flag `flag` into `*out`.
/// The whole token must be one number in std::from_chars syntax (no
/// leading whitespace or '+', nothing after it) and lie in [lo, hi], which
/// also rejects NaN and, with the default `hi`, infinities. Returns false
/// on failure, after printing an error naming the flag unless `text` is
/// null (a missing value); the command-line tools then print their usage
/// and exit with status 2.
template <typename T>
bool ParseNumericFlag(const std::string& flag, const char* text, T* out,
                      std::type_identity_t<T> lo,
                      std::type_identity_t<T> hi =
                          std::numeric_limits<T>::max()) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  const bool number = ptr == end && ec != std::errc::invalid_argument;
  if (!number || ec != std::errc() || !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "invalid value for %s: '%s' (%s)\n", flag.c_str(),
                 text, number ? "out of range" : "not a number");
    return false;
  }
  *out = value;
  return true;
}

}  // namespace dpcopula::tools

#endif  // DPCOPULA_TOOLS_FLAGS_H_
