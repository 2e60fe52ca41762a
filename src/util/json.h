// Minimal JSON value, parser, and writer for the experiment checkpoint
// format. Deliberately small: objects, arrays, strings, 64-bit integers,
// doubles, bools, null — no streaming, no unicode escapes beyond \uXXXX
// pass-through of ASCII. Doubles are emitted with max_digits10 precision
// so a dump/parse round trip reproduces the value bit-exactly (the
// resume-equals-uninterrupted guarantee of exp::checkpoint relies on
// this). Object key order is preserved to keep dumps deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qnn::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() = default;  // null
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}
  Value(std::uint64_t u);  // checked: must fit in int64
  Value(double d);         // checked: must be finite
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}

  static Value array() { return Value(Kind::kArray); }
  static Value object() { return Value(Kind::kObject); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // Typed accessors; each throws CheckError on a kind mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;      // kInt only
  double as_double() const;         // kInt or kDouble
  const std::string& as_string() const;

  // --- arrays -----------------------------------------------------------
  void push_back(Value v);
  std::size_t size() const;  // array or object
  const std::vector<Value>& items() const;
  const Value& at(std::size_t i) const;

  // --- objects ----------------------------------------------------------
  // Inserts or replaces a member (builder API).
  Value& set(const std::string& key, Value v);
  bool contains(const std::string& key) const;
  // Member lookup; throws CheckError naming the missing key.
  const Value& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Value>>& members() const;

  // Compact single-line serialization.
  std::string dump() const;

 private:
  explicit Value(Kind kind) : kind_(kind) {}
  void expect(Kind kind, const char* what) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

// Parses one JSON document (trailing whitespace allowed, nothing else).
// Throws CheckError with "<source_name>:<line>" context on malformed
// input. Integer literals without '.'/'e' that fit in int64 parse as
// kInt; everything else numeric parses as kDouble.
Value parse(const std::string& text,
            const std::string& source_name = "<json>");

}  // namespace qnn::json
