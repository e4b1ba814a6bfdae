#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace tornado {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue& JsonValue::Add(const std::string& key, JsonValue value) {
  object.emplace_back(key, std::move(value));
  return object.back().second;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWhitespace();
    if (!ParseValue(out)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing content after document");
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    size_t line = 1, col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    *error_ = std::to_string(line) + ":" + std::to_string(col) + ": " + message;
    return false;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c, const char* what) {
    if (AtEnd() || Peek() != c) {
      return Fail(std::string("expected ") + what);
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string_value);
      case 't':
      case 'f':
      case 'n':
        return ParseLiteral(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Fail("expected object key string");
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':', "':' after object key")) return false;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      for (const auto& [existing, unused] : out->object) {
        (void)unused;
        if (existing == key) {
          return Fail("duplicate object key \"" + key + "\"");
        }
      }
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (AtEnd()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (AtEnd()) return Fail("unterminated escape");
        const char e = text_[pos_++];
        static constexpr char kEscaped[] = "\"\\/bfnrt";
        static constexpr char kDecoded[] = "\"\\/\b\f\n\r\t";
        if (const char* hit = e == '\0' ? nullptr : std::strchr(kEscaped, e)) {
          out->push_back(kDecoded[hit - kEscaped]);
          continue;
        }
        if (e != 'u') return Fail("unknown escape sequence");
        // The repo's documents are ASCII in practice; decode BMP escapes
        // to UTF-8 without surrogate-pair handling.
        unsigned code = 0;
        const char* hex = text_.data() + pos_;
        if (pos_ + 4 > text_.size() ||
            std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
          return Fail("invalid \\u escape");
        }
        pos_ += 4;
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      out->push_back(c);
    }
  }

  // true, false or null.
  bool ParseLiteral(JsonValue* out) {
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.compare(pos_, word.size(), word) != 0) continue;
      out->type =
          word == "null" ? JsonValue::Type::kNull : JsonValue::Type::kBool;
      out->bool_value = word == "true";
      pos_ += word.size();
      return true;
    }
    return Fail("invalid literal");
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  static bool IsJsonNumber(const std::string& t) {
    size_t i = 0;
    const auto digits = [&]() {
      const size_t first = i;
      while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]))) {
        ++i;
      }
      return i > first;
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (i < t.size() && t[i] == '0') {
      ++i;
    } else if (!digits()) {
      return false;
    }
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (!digits()) return false;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (!digits()) return false;
    }
    return i == t.size();
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    // Take the whole run of number characters, then hold it to the
    // grammar, so a malformed number is named in full.
    while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                        Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
                        Peek() == '+' || Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (!IsJsonNumber(token) || end == nullptr || *end != '\0' ||
        !std::isfinite(value)) {
      pos_ = start;
      return Fail("invalid number \"" + token + "\"");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

void AppendNumber(double v, std::string* out) {
  TCHECK(std::isfinite(v)) << "JSON cannot represent the number " << v;
  // Integers (the common case: counts, seeds, node indexes) print without
  // an exponent or decimal point so scenario files stay diff-friendly.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    *out += buf;
    return;
  }
  // Shortest representation that round-trips (17 digits always do).
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  *out += buf;
}

void WriteValue(const JsonValue& v, int depth, std::string* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  const std::string inner(static_cast<size_t>(depth + 1) * 2, ' ');
  switch (v.type) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += v.bool_value ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      AppendNumber(v.number, out);
      return;
    case JsonValue::Type::kString:
      *out += JsonQuote(v.string_value);
      return;
    case JsonValue::Type::kArray: {
      if (v.array.empty()) {
        *out += "[]";
        return;
      }
      *out += "[\n";
      for (size_t i = 0; i < v.array.size(); ++i) {
        *out += inner;
        WriteValue(v.array[i], depth + 1, out);
        if (i + 1 < v.array.size()) *out += ",";
        *out += "\n";
      }
      *out += indent + "]";
      return;
    }
    case JsonValue::Type::kObject: {
      if (v.object.empty()) {
        *out += "{}";
        return;
      }
      *out += "{\n";
      for (size_t i = 0; i < v.object.size(); ++i) {
        *out += inner;
        *out += JsonQuote(v.object[i].first);
        *out += ": ";
        WriteValue(v.object[i].second, depth + 1, out);
        if (i + 1 < v.object.size()) *out += ",";
        *out += "\n";
      }
      *out += indent + "}";
      return;
    }
  }
}

}  // namespace

bool JsonParse(const std::string& text, JsonValue* out, std::string* error) {
  std::string scratch;
  Parser parser(text, error != nullptr ? error : &scratch);
  *out = JsonValue();
  return parser.Parse(out);
}

std::string JsonWrite(const JsonValue& value) {
  std::string out;
  WriteValue(value, 0, &out);
  return out;
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c) & 0xFF);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace tornado
