#include "falcon/json.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>

namespace composim::falcon {

std::int64_t Json::asInt() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* d = std::get_if<double>(&value_)) {
    // [-2^63, 2^63) is exactly the range whose truncation fits int64; NaN
    // fails both comparisons.
    if (!(*d >= -0x1p63 && *d < 0x1p63)) {
      throw JsonError("Json: number out of integer range");
    }
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

__extension__ typedef unsigned __int128 Uint128;

/// 10^0 .. 10^21: the scales formatG17's fixed-point path multiplies by.
constexpr auto kPow10 = [] {
  std::array<Uint128, 22> t{};
  t[0] = 1;
  for (std::size_t p = 1; p < t.size(); ++p) t[p] = t[p - 1] * 10;
  return t;
}();

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

}  // namespace

char* writeQuoted(char* first, std::string_view s) {
  *first++ = '"';
  const char* run = s.data();  // start of the pending run of safe bytes
  const char* const end = s.data() + s.size();
  for (const char* p = run; p != end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (!needsEscape(c)) continue;
    first = std::copy(run, p, first);
    run = p + 1;
    *first++ = '\\';
    switch (c) {
      case '"': *first++ = '"'; break;
      case '\\': *first++ = '\\'; break;
      case '\n': *first++ = 'n'; break;
      case '\r': *first++ = 'r'; break;
      case '\t': *first++ = 't'; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        first = std::copy_n(esc, sizeof(esc), first);
      }
    }
  }
  first = std::copy(run, end, first);
  *first++ = '"';
  return first;
}

char* formatG17(char* first, double d) {
  const double a = std::fabs(d);
  // Integral values below 1e17 have at most 17 digits, which "%.17g"
  // prints exactly and without a point; this covers +-0 too.
  if (a < 1e17) {
    const auto whole = static_cast<std::int64_t>(a);
    if (static_cast<double>(whole) == a) {
      if (std::signbit(d)) *first++ = '-';
      return std::to_chars(first, first + kG17MaxChars - 1, whole).ptr;
    }
  }
  if (!(a >= 1e-4 && a < 1e17)) {
    // Exponent form and subnormals. The standard defines
    // to_chars(general, 17) as printf's "%.17g".
    return std::to_chars(first, first + kG17MaxChars, d,
                         std::chars_format::general, 17)
        .ptr;
  }
  // "%.17g"'s fixed-point range, non-integral, so a = m / 2^shift with a
  // 53-bit m and shift in [1, 66]. D = round-half-even(a * 10^(16 - x)) is
  // the 17 significant digits once x is the decimal exponent of the
  // rounded value, i.e. once 10^16 <= D < 10^17. m * 10^21 < 2^123.
  std::uint64_t bits = 0;
  std::memcpy(&bits, &a, sizeof(bits));
  const int biased = static_cast<int>(bits >> 52);
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int shift = 1075 - biased;
  // floor((biased - 1023) * log10(2)): the exponent or one below it.
  int x = ((biased - 1023) * 78913) >> 18;
  std::uint64_t digits = 0;
  for (;;) {
    const Uint128 scaled = Uint128{m} * kPow10[static_cast<std::size_t>(16 - x)];
    const Uint128 q = scaled >> shift;
    const Uint128 rem = scaled - (q << shift);
    const Uint128 half = Uint128{1} << (shift - 1);
    digits = static_cast<std::uint64_t>(q) +
             ((rem > half || (rem == half && (q & 1) != 0)) ? 1 : 0);
    // One step per correction: an estimate one low, or a rounding that
    // carried into the next decade, gives 18 digits; an estimate one
    // high gives 16.
    if (digits >= 100000000000000000ULL) {
      ++x;
    } else if (digits < 10000000000000000ULL) {
      --x;
    } else {
      break;
    }
  }
  char text[17];
  for (int i = 15; i > 0; i -= 2) {
    std::memcpy(text + i, kDigitPairs + 2 * (digits % 100), 2);
    digits /= 100;
  }
  text[0] = static_cast<char>('0' + digits);
  std::size_t n = 17;  // significant digits once trailing zeros go
  while (text[n - 1] == '0') --n;

  if (d < 0) *first++ = '-';
  if (x >= 0) {
    const auto whole = static_cast<std::size_t>(x) + 1;
    first = std::copy_n(text, whole, first);
    if (n > whole) {
      *first++ = '.';
      first = std::copy(text + whole, text + n, first);
    }
    return first;
  }
  *first++ = '0';
  *first++ = '.';
  first = std::fill_n(first, -x - 1, '0');
  return std::copy_n(text, n, first);
}

namespace {

/// The largest extension step: the most `out` is ever padded past the
/// bytes written.
constexpr std::size_t kMaxStep = std::size_t{64} << 10;

char* copyText(char* p, std::string_view text) {
  return std::copy(text.begin(), text.end(), p);
}

}  // namespace

void JsonWriter::grow(std::size_t n) {
  const auto at = static_cast<std::size_t>(cur_ - out_.data());
  out_.resize(at + std::max(n, step_));
  step_ = std::min(2 * step_, kMaxStep);
  cur_ = out_.data() + at;
  end_ = out_.data() + out_.size();
}

void JsonWriter::trim() {
  // Compares before touching out_: once a document is complete the
  // caller may have appended to out_, and both pointers are stale.
  if (cur_ == end_) return;
  const auto at = static_cast<std::size_t>(cur_ - out_.data());
  out_.resize(at);
  cur_ = end_ = out_.data() + at;
}

void JsonWriter::fail(const char* what) {
  trim();
  throw JsonError(what);
}

char* JsonWriter::newlineIndent(char* p, std::size_t depth) const {
  if (indent_ < 0) return p;
  *p++ = '\n';
  return std::fill_n(p, static_cast<std::size_t>(indent_) * depth, ' ');
}

char* JsonWriter::beforeValue(std::size_t n) {
  if (stack_.empty()) {
    if (wrote_root_) fail("JsonWriter: second top-level value");
    wrote_root_ = true;
    return room(n);
  }
  Level& top = stack_.back();
  if (top.object) {
    if (!key_pending_) fail("JsonWriter: object member without a key");
    key_pending_ = false;
    return room(n);
  }
  const std::size_t depth = stack_.size();
  char* p = room(1 + lineRoom(depth) + n);
  if (!top.empty) *p++ = ',';
  top.empty = false;
  return newlineIndent(p, depth);
}

void JsonWriter::afterValue(char* p) {
  cur_ = p;
  if (stack_.empty()) trim();
}

void JsonWriter::open(char bracket, bool object) {
  char* p = beforeValue(1);
  *p++ = bracket;
  cur_ = p;
  stack_.push_back(Level{object});
}

void JsonWriter::close(char bracket, bool object) {
  if (stack_.empty() || stack_.back().object != object || key_pending_) {
    fail(object ? "JsonWriter: unmatched '}'" : "JsonWriter: unmatched ']'");
  }
  const bool empty = stack_.back().empty;
  const std::size_t depth = stack_.size() - 1;
  char* p = room(1 + (empty ? 0 : lineRoom(depth)));
  if (!empty) p = newlineIndent(p, depth);
  *p++ = bracket;
  stack_.pop_back();
  afterValue(p);
}

char* JsonWriter::beforeKey(std::size_t n) {
  if (stack_.empty() || !stack_.back().object || key_pending_) {
    fail("JsonWriter: key outside an object");
  }
  const std::size_t depth = stack_.size();
  char* p = room(1 + lineRoom(depth) + n + 2);
  Level& top = stack_.back();
  if (!top.empty) *p++ = ',';
  top.empty = false;
  return newlineIndent(p, depth);
}

void JsonWriter::afterKey(char* p) {
  *p++ = ':';
  if (indent_ >= 0) *p++ = ' ';
  cur_ = p;
  key_pending_ = true;
}

void JsonWriter::key(std::string_view k) {
  afterKey(writeQuoted(beforeKey(quotedMaxChars(k.size())), k));
}

void JsonWriter::quotedKey(std::string_view quoted) {
  afterKey(copyText(beforeKey(quoted.size()), quoted));
}

void JsonWriter::value(std::string_view s) {
  afterValue(writeQuoted(beforeValue(quotedMaxChars(s.size())), s));
}

void JsonWriter::quotedValue(std::string_view quoted) {
  afterValue(copyText(beforeValue(quoted.size()), quoted));
}

void JsonWriter::value(double d) {
  char* p = beforeValue(kG17MaxChars);
  // JSON has no Inf/NaN.
  afterValue(std::isfinite(d) ? formatG17(p, d) : copyText(p, "null"));
}

void JsonWriter::value(std::int64_t i) {
  constexpr std::size_t kMaxChars = 20;  // "-9223372036854775808"
  char* p = beforeValue(kMaxChars);
  afterValue(std::to_chars(p, p + kMaxChars, i).ptr);
}

void JsonWriter::value(bool b) {
  afterValue(copyText(beforeValue(5), b ? "true" : "false"));
}

void JsonWriter::null() { afterValue(copyText(beforeValue(4), "null")); }

void Json::write(JsonWriter& w) const {
  if (const auto* str = std::get_if<std::string>(&value_)) {
    w.value(*str);
  } else if (const auto* d = std::get_if<double>(&value_)) {
    w.value(*d);
  } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    w.value(*i);
  } else if (const auto* obj = std::get_if<JsonObject>(&value_)) {
    w.beginObject();
    for (const auto& [k, v] : *obj) {
      w.key(k);
      v.write(w);
    }
    w.endObject();
  } else if (const auto* arr = std::get_if<JsonArray>(&value_)) {
    w.beginArray();
    for (const Json& v : *arr) v.write(w);
    w.endArray();
  } else if (const auto* b = std::get_if<bool>(&value_)) {
    w.value(*b);
  } else {
    w.null();
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter w(out, indent);
  write(w);
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
