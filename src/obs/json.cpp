#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace neutral::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Nesting bound: parse_value recurses once per open array/object, so an
/// untrusted document (a neutrald frame) must not pick the stack depth.
/// Every document the repository writes nests a handful of levels.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after JSON document");
    return v;
  }

 private:
  void fail(const std::string& what) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }
  /// `what` is a literal: a message built per call would allocate on
  /// every byte of a large string.
  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ >= kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        require(consume_literal("null"), "bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      require(static_cast<unsigned char>(c) >= 0x20,
              "raw control byte in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      require(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          require(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // Our writers only emit \u00xx for control bytes; decode a BMP
          // code point as UTF-8 and refuse the surrogate halves.
          require(code < 0xD800 || code > 0xDFFF,
                  "surrogate \\u escapes unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0U | (code >> 6U));
            out += static_cast<char>(0x80U | (code & 0x3FU));
          } else {
            out += static_cast<char>(0xE0U | (code >> 12U));
            out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
            out += static_cast<char>(0x80U | (code & 0x3FU));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    require(pos_ > start, "expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      fail("bad number '" + token + "'");
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace neutral::obs
