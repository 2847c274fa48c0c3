// Minimal strict JSON parser (RFC 8259).
//
// Exists so tests and tools can parse structured output the repo itself
// produces — most importantly the tracer's Chrome-trace JSON, which the
// trace test suite parses back to prove well-formedness, so it accepts only
// well-formed documents. Numbers follow the RFC grammar and must be finite
// doubles; strings reject raw control characters, and \uXXXX escapes
// (surrogate pairs combined, lone surrogates rejected) decode to UTF-8.
// Nesting is bounded at 512 levels. Parse errors throw support::ApiError
// with an offset.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ttg::support::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// One JSON value (null / bool / number / string / array / object).
class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Value() = default;
  explicit Value(bool b) : type_(Type::Bool), bool_(b) {}
  explicit Value(double d) : type_(Type::Number), num_(d) {}
  explicit Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
  explicit Value(Array a);
  explicit Value(Object o);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }

  /// Typed accessors; throw ApiError on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object field lookup; throws ApiError if absent or not an object.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;
  /// Array element; throws ApiError if out of range or not an array.
  [[nodiscard]] const Value& at(std::size_t i) const;
  [[nodiscard]] std::size_t size() const;

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<Array> arr_;   // shared: Value stays cheaply copyable
  std::shared_ptr<Object> obj_;
};

/// Parse a complete JSON document; trailing non-whitespace is an error.
[[nodiscard]] Value parse(const std::string& text);

}  // namespace ttg::support::json
