// composim: minimal JSON value type with writer and parser.
//
// Supports the subset needed for Falcon configuration import/export
// (objects, arrays, strings, doubles, integers, booleans, null). Object
// keys keep insertion order so exported configurations diff cleanly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace composim::falcon {

class Json;
using JsonArray = std::vector<Json>;
/// Ordered key/value list (small configs; linear lookup is fine).
using JsonObject = std::vector<std::pair<std::string, Json>>;

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : value_(i) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  static Json object() { return Json(JsonObject{}); }
  static Json array() { return Json(JsonArray{}); }

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool isBool() const { return std::holds_alternative<bool>(value_); }
  bool isInt() const { return std::holds_alternative<std::int64_t>(value_); }
  bool isDouble() const { return std::holds_alternative<double>(value_); }
  bool isNumber() const { return isInt() || isDouble(); }
  bool isString() const { return std::holds_alternative<std::string>(value_); }
  bool isArray() const { return std::holds_alternative<JsonArray>(value_); }
  bool isObject() const { return std::holds_alternative<JsonObject>(value_); }

  bool asBool() const { return get<bool>("bool"); }
  /// Doubles truncate toward zero; a non-finite double or one outside
  /// the int64 range throws JsonError.
  std::int64_t asInt() const;
  double asDouble() const;
  const std::string& asString() const { return get<std::string>("string"); }
  const JsonArray& asArray() const { return get<JsonArray>("array"); }
  JsonArray& asArray() { return get<JsonArray>("array"); }
  const JsonObject& asObject() const { return get<JsonObject>("object"); }
  JsonObject& asObject() { return get<JsonObject>("object"); }

  /// Object field access; throws JsonError if absent or not an object.
  const Json& at(const std::string& key) const;
  /// Object field lookup; nullptr when absent.
  const Json* find(const std::string& key) const;
  /// Insert or overwrite an object field.
  void set(const std::string& key, Json value);
  /// Append to an array.
  void push(Json value) { asArray().push_back(std::move(value)); }

  /// Serialize; indent < 0 means compact single-line output.
  std::string dump(int indent = 2) const;

  /// Deepest array/object nesting parse() accepts.
  static constexpr int kMaxDepth = 1024;

  /// Parse a JSON document; throws JsonError with position info, also
  /// for documents nested deeper than kMaxDepth.
  static Json parse(const std::string& text);

  bool operator==(const Json& other) const = default;

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (const T* p = std::get_if<T>(&value_)) return *p;
    throw JsonError(std::string("Json: not a ") + what);
  }
  template <typename T>
  T& get(const char* what) {
    if (T* p = std::get_if<T>(&value_)) return *p;
    throw JsonError(std::string("Json: not a ") + what);
  }

  void dumpTo(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      value_;
};

}  // namespace composim::falcon
