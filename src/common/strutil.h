#ifndef ODE_COMMON_STRUTIL_H_
#define ODE_COMMON_STRUTIL_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace ode {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on character `sep`; empty fields preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parses all of `s` as one number (std::from_chars: no whitespace, no
/// '+', no sign for unsigned types; `base` applies to integers). False on
/// an empty, partial or out-of-range parse, with *out unspecified.
template <typename T>
bool ParseNumber(std::string_view s, T* out, int base = 10) {
  const char* end = s.data() + s.size();
  std::from_chars_result r;
  if constexpr (std::is_integral_v<T>) {
    r = std::from_chars(s.data(), end, *out, base);
  } else {
    r = std::from_chars(s.data(), end, *out);
  }
  return r.ec == std::errc() && r.ptr == end;
}

/// 64-bit FNV-1a hash; stable across runs (used by persistence checksums).
uint64_t Fnv1a64(std::string_view s);

}  // namespace ode

#endif  // ODE_COMMON_STRUTIL_H_
