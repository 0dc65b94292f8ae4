// Whole-value parsing for numeric command-line values.  Every tool reads
// its numeric flags through parse_number, so "0.1x", "10%" or "abc" is
// refused instead of running as its leading digits (or as 0).
#pragma once

#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace pet {

/// `text` as one number of type T; throws std::invalid_argument
/// "bad value in <arg>" when it has no digits, has trailing characters or
/// does not fit T.  Integers are read in `base`, floating-point values in
/// decimal.
template <typename T>
T parse_number(std::string_view text, std::string_view arg, int base = 10) {
  T value{};
  const char* const end = text.data() + text.size();
  std::from_chars_result result{};
  if constexpr (std::is_integral_v<T>) {
    result = std::from_chars(text.data(), end, value, base);
  } else {
    result = std::from_chars(text.data(), end, value);
  }
  if (result.ec != std::errc() || result.ptr != end) {
    throw std::invalid_argument("bad value in " + std::string(arg));
  }
  return value;
}

}  // namespace pet
