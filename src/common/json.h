#ifndef TORNADO_COMMON_JSON_H_
#define TORNADO_COMMON_JSON_H_

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tornado {

/// The repo's one JSON document model, reader and writer: scenario files,
/// bench results, lint reports and trace summaries all go through it.
/// Hand-rolled (the repo takes no third-party dependencies), strict (no
/// comments, no trailing commas, no NaN/Inf, numbers only in RFC 8259's
/// grammar), and order-preserving so a parsed document round-trips in a
/// stable field order. Numbers are held
/// as doubles — the integers written here (counts, seeds, line numbers)
/// stay well inside the 2^53 exact range.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* Find(const std::string& key) const;
  /// Same, and nullptr when the member is not of `want`'s type.
  const JsonValue* Find(const std::string& key, Type want) const {
    const JsonValue* value = Find(key);
    return value != nullptr && value->type == want ? value : nullptr;
  }

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_bool() const { return type == Type::kBool; }

  /// An object holding `members` in the given order.
  static JsonValue MakeObject(
      std::initializer_list<std::pair<std::string, JsonValue>> members = {}) {
    JsonValue v;
    v.type = Type::kObject;
    v.object.assign(members.begin(), members.end());
    return v;
  }
  static JsonValue MakeArray(std::initializer_list<JsonValue> items = {}) {
    JsonValue v;
    v.type = Type::kArray;
    v.array.assign(items.begin(), items.end());
    return v;
  }
  static JsonValue Of(double number) {
    JsonValue v;
    v.type = Type::kNumber;
    v.number = number;
    return v;
  }
  static JsonValue Of(bool b) {
    JsonValue v;
    v.type = Type::kBool;
    v.bool_value = b;
    return v;
  }
  /// Integers are held as doubles (see above).
  static JsonValue Of(std::integral auto number) {
    return Of(static_cast<double>(number));
  }
  static JsonValue Of(std::string s) {
    JsonValue v;
    v.type = Type::kString;
    v.string_value = std::move(s);
    return v;
  }
  /// Without this overload a string literal would convert to bool.
  static JsonValue Of(const char* s) { return Of(std::string(s)); }

  /// Appends a member (objects only). Returns the stored value.
  JsonValue& Add(const std::string& key, JsonValue value);
};

/// Parses `text` into `*out`. On failure returns false and sets `*error`
/// to a one-line message with the 1-based line:column of the offending
/// byte (e.g. "3:17: expected ':' after object key").
bool JsonParse(const std::string& text, JsonValue* out, std::string* error);

/// Serializes `value` as pretty-printed JSON (two-space indent, "\n"
/// line ends, no trailing newline). A non-finite number is a TCHECK
/// failure: JSON cannot represent it, and JsonParse would reject the text.
std::string JsonWrite(const JsonValue& value);

/// `s` as a quoted JSON string literal: `"` and `\` escaped, \n \t \r
/// as their short escapes, every other control character as \u00XX.
/// For writers that stream JSON without building a JsonValue.
std::string JsonQuote(std::string_view s);

}  // namespace tornado

#endif  // TORNADO_COMMON_JSON_H_
