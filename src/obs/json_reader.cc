#include "obs/json_reader.h"

#include <charconv>
#include <cstdint>
#include <system_error>

namespace dpcopula::obs {

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Result<JsonValue> Document() {
    JsonValue value;
    SkipWs();
    if (!Value(&value, 0)) return error_;
    SkipWs();
    if (pos_ != s_.size()) {
      Fail("trailing bytes after the value");
      return error_;
    }
    return value;
  }

 private:
  bool Fail(const char* what) {
    error_ = Status::InvalidArgument("JSON: " + std::string(what) +
                                     " at byte " + std::to_string(pos_));
    return false;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    switch (Peek()) {
      case '{':
        return Object(out, depth + 1);
      case '[':
        return Array(out, depth + 1);
      case '"':
        out->type = JsonValue::Type::kString;
        return String(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number(out);
    }
  }

  bool Object(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Fail("nesting too deep");
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      SkipWs();
      std::string key;
      if (Peek() != '"') return Fail("expected a string key");
      if (!String(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      out->object.emplace_back(std::move(key), JsonValue{});
      if (!Value(&out->object.back().second, depth)) return false;
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  bool Array(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Fail("nesting too deep");
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      SkipWs();
      out->array.emplace_back();
      if (!Value(&out->array.back(), depth)) return false;
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  // Number grammar: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool Number(JsonValue* out) {
    const std::size_t start = pos_;
    auto digits = [this] {
      const std::size_t from = pos_;
      while (IsDigit(Peek())) ++pos_;
      return pos_ > from;
    };
    Consume('-');
    if (Peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      pos_ = start;
      return Fail("invalid value");
    }
    if (Consume('.') && !digits()) return Fail("expected a fraction digit");
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!digits()) return Fail("expected an exponent digit");
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, value);
    if (ec != std::errc() || end != s_.data() + pos_) {
      pos_ = start;
      return Fail("number out of range");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return true;
  }

  // Reads the four hex digits after "\u".
  bool Hex4(std::uint32_t* out) {
    const char* begin = s_.data() + pos_;
    if (s_.size() - pos_ < 4 ||
        std::from_chars(begin, begin + 4, *out, 16).ptr != begin + 4) {
      return Fail("\\u needs four hex digits");
    }
    pos_ += 4;
    return true;
  }

  // Decodes one \u escape (a surrogate pair takes two) to UTF-8.
  bool Unicode(std::string* out) {
    std::uint32_t cp = 0;
    if (!Hex4(&cp)) return false;
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      std::uint32_t low = 0;
      if (!Consume('\\') || !Consume('u') || !Hex4(&low) || low < 0xDC00 ||
          low > 0xDFFF) {
        return Fail("lone surrogate");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return Fail("lone surrogate");
    }
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    static constexpr std::uint32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out->push_back(static_cast<char>(kLead[tail] | cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out->push_back(static_cast<char>(0x80 | (cp >> (6 * i) & 0x3F)));
    }
    return true;
  }

  bool String(std::string* out) {
    static constexpr std::string_view kEscape = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    ++pos_;  // '"'
    for (;;) {
      if (pos_ >= s_.size()) return Fail("unterminated string");
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      ++pos_;
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
      } else if (Consume('u')) {
        if (!Unicode(out)) return false;
      } else if (const std::size_t e = kEscape.find(Peek());
                 e != std::string_view::npos) {
        out->push_back(kDecoded[e]);
        ++pos_;
      } else {
        return Fail("invalid escape");
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  Status error_;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Document();
}

}  // namespace dpcopula::obs
