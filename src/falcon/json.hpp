// composim: minimal JSON value type, streaming writer and parser.
//
// Supports the subset needed for Falcon configuration import/export
// (objects, arrays, strings, doubles, integers, booleans, null). Object
// keys keep insertion order so exported configurations diff cleanly.
// JsonWriter is the one serializer: Json::dump walks the document through
// it, and exporters too large for a document (the Chrome trace) stream
// through it directly, so both produce the same bytes for the same data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// Room formatG17 needs: "%.17g" prints at most 24 characters
/// ("-1.2345678901234567e-308").
inline constexpr std::size_t kG17MaxChars = 32;

/// Writes finite `d` exactly as printf's "%.17g" at `first`, which must
/// have room for kG17MaxChars characters, and returns one past the last
/// one written. No terminating NUL. Integral values below 1e17 print
/// through the int64 to_chars; the rest of the fixed-point range
/// [1e-4, 1e17) rounds to 17 digits in exact 128-bit integer arithmetic;
/// only exponent-form values (and subnormals) take the slower
/// to_chars(general, 17). Non-finite input is the caller's to handle.
char* formatG17(char* first, double d);

/// Appends one JSON document to a caller-owned string as it is described:
/// begin/end containers, keys, scalar values. Formatting matches
/// Json::dump exactly: with indent < 0 the output is compact; otherwise
/// each member sits on its own line indented `indent` spaces per level,
/// keys are followed by ": ", and empty containers print as {} / [].
/// Doubles print as printf's "%.17g" through formatG17 (non-finite ones
/// as null), integers exactly, and strings escape quote, backslash and C0
/// bytes. formatG17's integer and 128-bit fast paths take the values a
/// trace mostly writes (timestamps, byte and flow counts);
/// export_identity_test holds all of its paths to snprintf("%.17g") as
/// the oracle.
///
/// Misplaced calls (a value where a key is due, an end that does not
/// match its begin, a second top-level value) throw JsonError. The
/// writer holds a reference to `out`, which must outlive it.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, int indent = -1)
      : out_(out), indent_(indent) {}

  void beginObject() { open('{', true); }
  void endObject() { close('}', true); }
  void beginArray() { open('[', false); }
  void endArray() { close(']', false); }

  /// The next member's key; only inside an object, before each value.
  void key(std::string_view k);
  /// A key already escaped and quoted, such as the constant R"("ph")":
  /// written as is, for keys a caller writes many times.
  void quotedKey(std::string_view quoted);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double d);
  void value(std::int64_t i);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void value(bool b);
  void null();

 private:
  struct Level {
    bool object = false;
    bool empty = true;
  };
  void open(char bracket, bool object);
  void close(char bracket, bool object);
  /// Separator and indentation before an array element; in an object,
  /// checks that the value's key was written.
  void beforeValue();
  /// Separator and indentation before an object member's key, and the
  /// colon after it.
  void beforeKey();
  void afterKey();
  void newlineIndent(std::size_t depth);

  std::string& out_;
  int indent_;
  std::vector<Level> stack_;
  bool key_pending_ = false;  // a key was written; its value is due
  bool wrote_root_ = false;  // the one top-level value has begun
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

  void write(JsonWriter& w) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      value_;
};

}  // namespace composim::falcon
