#include "support/json.hpp"

#include <cmath>
#include <cstdlib>

#include "support/error.hpp"

namespace ttg::support::json {

Value::Value(Array a) : type_(Type::Array), arr_(std::make_shared<Array>(std::move(a))) {}
Value::Value(Object o)
    : type_(Type::Object), obj_(std::make_shared<Object>(std::move(o))) {}

bool Value::as_bool() const {
  TTG_REQUIRE(type_ == Type::Bool, "json: not a bool");
  return bool_;
}

double Value::as_number() const {
  TTG_REQUIRE(type_ == Type::Number, "json: not a number");
  return num_;
}

const std::string& Value::as_string() const {
  TTG_REQUIRE(type_ == Type::String, "json: not a string");
  return str_;
}

const Array& Value::as_array() const {
  TTG_REQUIRE(type_ == Type::Array, "json: not an array");
  return *arr_;
}

const Object& Value::as_object() const {
  TTG_REQUIRE(type_ == Type::Object, "json: not an object");
  return *obj_;
}

const Value& Value::at(const std::string& key) const {
  const Object& o = as_object();
  auto it = o.find(key);
  TTG_REQUIRE(it != o.end(), "json: missing key '" + key + "'");
  return it->second;
}

bool Value::has(const std::string& key) const {
  return type_ == Type::Object && obj_->count(key) > 0;
}

const Value& Value::at(std::size_t i) const {
  const Array& a = as_array();
  TTG_REQUIRE(i < a.size(), "json: index out of range");
  return a[i];
}

std::size_t Value::size() const {
  if (type_ == Type::Array) return arr_->size();
  if (type_ == Type::Object) return obj_->size();
  return 0;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value run() {
    Value v = value();
    skip_ws();
    TTG_REQUIRE(pos_ == s_.size(), err("trailing characters"));
    return v;
  }

 private:
  [[nodiscard]] std::string err(const std::string& what) const {
    return "json parse error at offset " + std::to_string(pos_) + ": " + what;
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    TTG_REQUIRE(pos_ < s_.size(), err("unexpected end of input"));
    return s_[pos_];
  }

  void expect(char c) {
    TTG_REQUIRE(peek() == c, err(std::string("expected '") + c + "'"));
    ++pos_;
  }

  bool literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Bounded so hostile nesting throws instead of overflowing the stack.
        TTG_REQUIRE(depth_ < kMaxDepth,
                    err("nesting deeper than " + std::to_string(kMaxDepth) + " levels"));
        ++depth_;
        Value v = c == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': return Value(string());
      case 't':
        TTG_REQUIRE(literal("true"), err("bad literal"));
        return Value(true);
      case 'f':
        TTG_REQUIRE(literal("false"), err("bad literal"));
        return Value(false);
      case 'n':
        TTG_REQUIRE(literal("null"), err("bad literal"));
        return Value();
      default: return number();
    }
  }

  Value object() {
    expect('{');
    Object o;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(o));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      o.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(o));
    }
  }

  Value array() {
    expect('[');
    Array a;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(a));
    }
    while (true) {
      a.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(a));
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  /// The four hex digits of a \u escape.
  unsigned hex4() {
    TTG_REQUIRE(pos_ + 4 <= s_.size(), err("short \\u escape"));
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        TTG_REQUIRE(false, err("bad hex digit in \\u escape"));
      }
    }
    return cp;
  }

  /// A \u escape's code point: a UTF-16 surrogate pair is combined, and a
  /// lone surrogate is an error.
  unsigned code_point() {
    const unsigned cp = hex4();
    TTG_REQUIRE(cp < 0xDC00 || cp > 0xDFFF, err("lone low surrogate in \\u escape"));
    if (cp < 0xD800 || cp > 0xDBFF) return cp;
    TTG_REQUIRE(s_.compare(pos_, 2, "\\u") == 0, err("lone high surrogate in \\u escape"));
    pos_ += 2;
    const unsigned lo = hex4();
    TTG_REQUIRE(lo >= 0xDC00 && lo <= 0xDFFF, err("lone high surrogate in \\u escape"));
    return 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      TTG_REQUIRE(pos_ < s_.size(), err("unterminated string"));
      const char c = s_[pos_++];
      if (c == '"') return out;
      TTG_REQUIRE(static_cast<unsigned char>(c) >= 0x20, err("raw control character in string"));
      if (c != '\\') {
        out += c;
        continue;
      }
      TTG_REQUIRE(pos_ < s_.size(), err("unterminated escape"));
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, code_point()); break;
        default: TTG_REQUIRE(false, err("bad escape character"));
      }
    }
  }

  /// Consumes a run of decimal digits; returns how many.
  std::size_t digits() {
    const std::size_t from = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ - from;
  }

  bool accept(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, finite.
  Value number() {
    const std::size_t start = pos_;
    accept('-');
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    TTG_REQUIRE(int_digits > 0, err("expected a value"));
    TTG_REQUIRE(int_digits == 1 || s_[int_start] != '0', err("leading zero in number"));
    if (accept('.')) TTG_REQUIRE(digits() > 0, err("expected a digit after '.'"));
    if (accept('e') || accept('E')) {
      if (!accept('+')) accept('-');
      TTG_REQUIRE(digits() > 0, err("expected a digit in the exponent"));
    }
    const std::string tok = s_.substr(start, pos_ - start);
    const double d = std::strtod(tok.c_str(), nullptr);
    TTG_REQUIRE(std::isfinite(d), err("number out of range '" + tok + "'"));
    return Value(d);
  }

  static constexpr int kMaxDepth = 512;

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).run(); }

}  // namespace ttg::support::json
