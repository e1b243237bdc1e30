#ifndef DPCOPULA_OBS_JSON_READER_H_
#define DPCOPULA_OBS_JSON_READER_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

/// The one JSON reader: the parsing side of obs/json_writer.h, used by the
/// tools that read run reports, bench ledgers and google-benchmark output,
/// and by the tests that check what the writers emit. Every document it
/// reads may come from outside the program, so it accepts strict RFC 8259
/// only and fails closed.

namespace dpcopula::obs {

/// Nesting cap of ParseJson. The deepest document the repo writes is the
/// run report's span tree, a few dozen levels; the cap keeps a hostile
/// document from exhausting the stack.
inline constexpr int kMaxJsonDepth = 256;

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order (tables render in the order the producer
  /// emitted them); a duplicated key keeps every occurrence.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// The first member named `key`, or null when this is not an object or
  /// has no such member.
  const JsonValue* Find(std::string_view key) const;
  /// The number, or `fallback` when this is not a number.
  double NumberOr(double fallback) const {
    return is_number() ? number : fallback;
  }
};

/// Parses one JSON document. Accepts exactly RFC 8259: numbers match its
/// grammar and are read with std::from_chars (no NaN, Infinity, leading
/// '+' or '.', and out-of-range values are errors), strings hold no raw
/// control characters and only the standard escapes, `\u` takes exactly
/// four hex digits and is decoded to UTF-8 (surrogate pairs combined, lone
/// surrogates rejected), other bytes pass through unchanged, and nothing
/// but whitespace may follow the value. Nesting deeper than kMaxJsonDepth
/// is an error. Failures are InvalidArgument naming the byte offset.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace dpcopula::obs

#endif  // DPCOPULA_OBS_JSON_READER_H_
