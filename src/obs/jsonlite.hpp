// The repo's one JSON reader.  It is shape-agnostic: verify/benchjson walks
// the BENCH artifact schema over the JsonValue it returns, and obscheck,
// petctl and perf_ledger read metrics documents with it.  Throws
// std::runtime_error with a byte offset on malformed input, on containers
// nested more than 64 deep, and on \u escapes above 0x7f (the emitters
// escape only control bytes, so nothing this repo writes needs more).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pet::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }

  /// Member lookup on objects; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
};

/// Parse one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace pet::obs
