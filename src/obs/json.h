// Minimal JSON: escaping for the writers (TraceLog, bench records) and a
// small strict recursive-descent parser for the readers (the bench-record
// schema check, tests that re-parse trace lines).
//
// Deliberately tiny — no external dependency, no DOM mutation API.  Numbers
// parse to double; the inputs we produce stay well inside its exact range.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace neutral::obs {

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

/// Render `v` as a JSON number token (%.17g round-trip); non-finite values
/// are not representable in JSON and render as 0.
std::string json_number(double v);

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  [[nodiscard]] bool is(Type t) const { return type == t; }
  /// Object member lookup; null when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

/// Parse one complete JSON document.  Throws neutral::Error (with position)
/// on malformed input or trailing garbage.  Strings may hold no raw
/// control byte and no surrogate \u escape; nesting is bounded.
JsonValue parse_json(const std::string& text);

}  // namespace neutral::obs
