#include "falcon/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace composim::falcon {

std::int64_t Json::asInt() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* d = std::get_if<double>(&value_)) {
    return static_cast<std::int64_t>(*d);
  }
  throw JsonError("Json: not a number");
}

double Json::asDouble() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  throw JsonError("Json: not a number");
}

const Json& Json::at(const std::string& key) const {
  if (const Json* p = find(key)) return *p;
  throw JsonError("Json: missing key '" + key + "'");
}

const Json* Json::find(const std::string& key) const {
  const auto& obj = asObject();
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(const std::string& key, Json value) {
  auto& obj = asObject();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(key, std::move(value));
}

namespace {

/// Bytes that need an escape in a JSON string: quote, backslash and C0
/// control characters; everything else (UTF-8 included) passes through.
bool needsEscape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

void escapeString(std::string& out, const std::string& s) {
  out += '"';
  const char* run = s.data();  // start of the pending run of safe bytes
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (!needsEscape(c)) continue;
    out.append(run, static_cast<std::size_t>(p - run));
    run = p + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(run, static_cast<std::size_t>(end - run));
  out += '"';
}

void newlineIndent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::dumpTo(std::string& out, int indent, int depth) const {
  if (const auto* str = std::get_if<std::string>(&value_)) {
    escapeString(out, *str);
  } else if (const auto* d = std::get_if<double>(&value_)) {
    if (std::isfinite(*d)) {
      // The standard defines to_chars(general, 17) as printf's "%.17g".
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof(buf), *d,
                                     std::chars_format::general, 17);
      out.append(buf, static_cast<std::size_t>(res.ptr - buf));
    } else {
      out += "null";  // JSON has no Inf/NaN
    }
  } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), *i);
    out.append(buf, static_cast<std::size_t>(res.ptr - buf));
  } else if (const auto* obj = std::get_if<JsonObject>(&value_)) {
    if (obj->empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t k = 0; k < obj->size(); ++k) {
      if (k > 0) out += ',';
      newlineIndent(out, indent, depth + 1);
      escapeString(out, (*obj)[k].first);
      out += indent < 0 ? ":" : ": ";
      (*obj)[k].second.dumpTo(out, indent, depth + 1);
    }
    newlineIndent(out, indent, depth);
    out += '}';
  } else if (const auto* arr = std::get_if<JsonArray>(&value_)) {
    if (arr->empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t k = 0; k < arr->size(); ++k) {
      if (k > 0) out += ',';
      newlineIndent(out, indent, depth + 1);
      (*arr)[k].dumpTo(out, indent, depth + 1);
    }
    newlineIndent(out, indent, depth);
    out += ']';
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else {
    out += "null";
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parseDocument() {
    Json v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Json parseValue() {
    skipWs();
    switch (peek()) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': return Json(parseString());
      case 't': parseLiteral("true"); return Json(true);
      case 'f': parseLiteral("false"); return Json(false);
      case 'n': parseLiteral("null"); return Json(nullptr);
      default: return parseNumber();
    }
  }

  void parseLiteral(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad hex digit in \\u escape");
            }
            // Encode BMP code point as UTF-8 (surrogates not supported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (consume('-')) { /* sign */ }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool isInt = true;
    if (consume('.')) {
      isInt = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isInt = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
    }
    const std::string tok = text_.substr(start, pos_ - start);
    if (isInt) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Json(v);
    }
    try {
      return Json(std::stod(tok));
    } catch (const std::exception&) {
      fail("invalid number '" + tok + "'");
    }
  }

  /// Counts one level of array/object nesting for the duration of a
  /// parseObject/parseArray call. The parser recurses per level, so the
  /// cap keeps hostile input from overflowing the stack.
  struct Nesting {
    explicit Nesting(Parser& p) : parser(p) {
      if (++parser.depth_ > Json::kMaxDepth) {
        parser.fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
                    " levels");
      }
    }
    ~Nesting() { --parser.depth_; }
    Parser& parser;
  };

  Json parseObject() {
    const Nesting level(*this);
    expect('{');
    Json obj = Json::object();
    skipWs();
    if (consume('}')) return obj;
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      obj.set(key, parseValue());
      skipWs();
      if (consume('}')) return obj;
      expect(',');
    }
  }

  Json parseArray() {
    const Nesting level(*this);
    expect('[');
    Json arr = Json::array();
    skipWs();
    if (consume(']')) return arr;
    while (true) {
      arr.push(parseValue());
      skipWs();
      if (consume(']')) return arr;
      expect(',');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parseDocument(); }

}  // namespace composim::falcon
