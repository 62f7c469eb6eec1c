// Byte-identity tests for the export path: the JSON writer's number and
// string formatting against their printf-era definitions, the streaming
// writer against documents dumped through Json, hand-driven Chrome traces
// against text recorded from the document-building exporter, and golden
// digests of a traced BERT-L run's Chrome trace, analysis JSON, Prometheus
// text and JSONL dump. The digests pin every exported byte, so any change
// to the profiler's record layout, the writer or the metrics formatter
// must reproduce them exactly.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "falcon/json.hpp"
#include "profile_emit.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/profiler.hpp"

namespace composim {
namespace {

using falcon::Json;
using falcon::JsonArray;
using falcon::JsonObject;
using telemetry::Profiler;

std::string printfG17(double d) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

void expectPrintfIdentical(double d) {
  ASSERT_EQ(Json(d).dump(), printfG17(d)) << "bits " << std::hexfloat << d;
}

TEST(JsonWriter, DoublesMatchPrintfOverRandomBitPatterns) {
  std::mt19937_64 rng(20211);
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    if (!std::isfinite(d)) continue;
    expectPrintfIdentical(d);
    ++checked;
  }
  EXPECT_GT(checked, 190000);
}

TEST(JsonWriter, DoublesMatchPrintfAtEdges) {
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          DBL_MIN,
                          DBL_MIN / 3.0,
                          DBL_MIN - std::numeric_limits<double>::denorm_min(),
                          DBL_MAX,
                          -DBL_MAX,
                          1e308,
                          -1e308,
                          1e-308,
                          0.1,
                          1.0 / 3.0,
                          1e15,
                          1e16,
                          1e17,
                          1e21,
                          1e22,
                          9007199254740993.0,
                          123456789012345678.0};
  for (const double d : edges) expectPrintfIdentical(d);
  // Integral doubles: small counts, powers of two and ten, both signs.
  for (int i = -2000; i <= 2000; ++i) expectPrintfIdentical(i);
  for (int e = 0; e < 1024; ++e) {
    expectPrintfIdentical(std::ldexp(1.0, e));
    expectPrintfIdentical(-std::ldexp(1.0, e));
  }
  for (int e = 0; e <= 308; ++e) expectPrintfIdentical(std::pow(10.0, e));
  // Subnormals across their whole exponent range.
  for (int e = -1074; e < -1022; ++e) {
    expectPrintfIdentical(std::ldexp(1.0, e));
    expectPrintfIdentical(std::ldexp(1.5, e));
  }
}

// The fixed-point fast path's edges: its decades, the roundings that carry
// into the next decade, ties (round-half-even), and the bounds where
// formatG17 switches between its integer, 128-bit and to_chars paths.

/// 10^k correctly rounded (std::pow need not be).
double powerOfTen(int k) {
  return std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
}

/// `d` and its `steps` neighbours on each side, both signs.
void expectNeighboursPrintfIdentical(double d, int steps) {
  double below = d;
  double above = d;
  for (int i = 0; i <= steps; ++i) {
    for (const double v : {below, above}) {
      expectPrintfIdentical(v);
      expectPrintfIdentical(-v);
    }
    below = std::nextafter(below, 0.0);
    above = std::nextafter(above, HUGE_VAL);
  }
}

TEST(JsonWriter, DoublesMatchPrintfAroundPowersOfTen) {
  for (int k = -5; k <= 18; ++k) expectNeighboursPrintfIdentical(powerOfTen(k), 3);
}

TEST(JsonWriter, DoublesMatchPrintfAtFastPathBounds) {
  // 1e-4 (fixed vs exponent form), 2^53 (the last fractional doubles),
  // 1e17 (integers vs exponent form), and 1e15/1e16, where 17 digits
  // leave one or no fraction digit.
  for (const double d : {1e-4, 0x1p53, 1e17, 1e15, 1e16}) {
    expectNeighboursPrintfIdentical(d, 2000);
  }
}

TEST(JsonWriter, DoublesMatchPrintfAtRoundingCarriesAndTies) {
  const double values[] = {
      // Literals that round up into the next decade at 17 digits.
      0.99999999999999999, 9999999999999999.5, 99999999999999999.0,
      0.000099999999999999999, 0.00099999999999999999, 99999.999999999999,
      999999999999999.95, 9.9999999999999999, 0.099999999999999999,
      // Exact ties at the 17th digit: half-even keeps the even digit.
      1000000000000000.25, 1000000000000000.75, 1000000000000002.25,
      100000000000000.125, 100000000000000.375, 100000000000000.625,
      4503599627370495.5, 0.5, 0.25, 0.125, 2.5, 1234.5};
  for (const double d : values) {
    expectPrintfIdentical(d);
    expectPrintfIdentical(-d);
  }
}

TEST(JsonWriter, DoublesMatchPrintfOverLogUniformValues) {
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> log10_of(-6.0, 18.0);
  for (int i = 0; i < (1 << 20); ++i) {
    const double d = std::pow(10.0, log10_of(rng));
    expectPrintfIdentical((i & 1) != 0 ? -d : d);
  }
}

TEST(JsonWriter, DoublesMatchPrintfOnTraceTimestamps) {
  // The Chrome trace writes t * 1e6 for simulated seconds t: random
  // instants, and the sums of small steps a run's clock accumulates.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> seconds(0.0, 300.0);
  std::uniform_real_distribution<double> step(1e-7, 1e-3);
  double t = 0.0;
  for (int i = 0; i < 200000; ++i) {
    expectPrintfIdentical(seconds(rng) * 1e6);
    t += step(rng);
    expectPrintfIdentical(t * 1e6);
  }
}

TEST(JsonWriter, NonFiniteDoublesDumpAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::quiet_NaN()).dump(), "null");
}

TEST(JsonWriter, Int64Extremes) {
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");
  EXPECT_EQ(Json(std::int64_t{0}).dump(), "0");
  EXPECT_EQ(Json(-1).dump(), "-1");
}

/// The escaping contract, spelled out independently of the writer.
std::string referenceEscape(unsigned char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: break;
  }
  if (c < 0x20) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
    return buf;
  }
  return std::string(1, static_cast<char>(c));
}

std::string inQuotes(const std::string& s) {
  std::string q = "\"";
  q += s;
  q += '"';
  return q;
}

TEST(JsonWriter, EscapesEveryByte) {
  std::string all;
  std::string want;
  for (int b = 0; b < 256; ++b) {
    const auto c = static_cast<unsigned char>(b);
    EXPECT_EQ(Json(std::string(1, static_cast<char>(c))).dump(),
              inQuotes(referenceEscape(c)))
        << "byte " << b;
    // Runs of safe bytes between escapes: exercise each byte mid-string.
    all += "ab";
    all += static_cast<char>(c);
    want += "ab";
    want += referenceEscape(c);
  }
  EXPECT_EQ(Json(all).dump(), inQuotes(want));
  // Object keys go through the same escaper.
  Json obj = Json::object();
  obj.set(all, 1);
  std::string member = "{";
  member += inQuotes(want);
  member += ":1}";
  EXPECT_EQ(obj.dump(-1), member);
}

// --- the streaming writer is Json::dump's serializer ---

TEST(JsonWriter, StreamedDocumentMatchesJsonDump) {
  Json inner = Json::object();
  inner.set("empty_obj", Json::object());
  inner.set("empty_arr", Json::array());
  inner.set("esc\"key\n", "v\\al\x01");
  Json list = Json::array();
  list.push(1);
  list.push(-2.5);
  list.push(std::numeric_limits<double>::quiet_NaN());
  list.push(true);
  list.push(nullptr);
  list.push(std::move(inner));
  list.push(Json::array());
  Json doc = Json::object();
  doc.set("list", std::move(list));
  doc.set("n", std::int64_t{INT64_MIN});
  doc.set("deep", Json(JsonArray{Json(JsonArray{Json(JsonObject{})})}));

  for (const int indent : {-1, 0, 2, 4}) {
    std::string out;
    falcon::JsonWriter w(out, indent);
    w.beginObject();
    w.key("list");
    w.beginArray();
    w.value(1);
    w.value(-2.5);
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(true);
    w.null();
    w.beginObject();
    w.key("empty_obj");
    w.beginObject();
    w.endObject();
    w.key("empty_arr");
    w.beginArray();
    w.endArray();
    w.quotedKey(R"("esc\"key\n")");
    w.value("v\\al\x01");
    w.endObject();
    w.beginArray();
    w.endArray();
    w.endArray();
    w.key("n");
    w.value(std::int64_t{INT64_MIN});
    w.key("deep");
    w.beginArray();
    w.beginArray();
    w.beginObject();
    w.endObject();
    w.endArray();
    w.endArray();
    w.endObject();
    EXPECT_EQ(out, doc.dump(indent)) << "indent " << indent;
  }
}

TEST(JsonWriter, MisplacedCallsThrow) {
  std::string out;
  falcon::JsonWriter object_value(out);
  object_value.beginObject();
  EXPECT_THROW(object_value.value(1), falcon::JsonError);  // no key
  EXPECT_THROW(object_value.endArray(), falcon::JsonError);

  falcon::JsonWriter array_key(out);
  array_key.beginArray();
  EXPECT_THROW(array_key.key("k"), falcon::JsonError);
  EXPECT_THROW(array_key.endObject(), falcon::JsonError);

  falcon::JsonWriter dangling_key(out);
  dangling_key.beginObject();
  dangling_key.key("k");
  EXPECT_THROW(dangling_key.key("j"), falcon::JsonError);
  EXPECT_THROW(dangling_key.endObject(), falcon::JsonError);

  falcon::JsonWriter two_roots(out);
  two_roots.value(1);
  EXPECT_THROW(two_roots.value(2), falcon::JsonError);
  EXPECT_THROW(falcon::JsonWriter(out).endObject(), falcon::JsonError);
}

// --- the writer's buffer contract: out holds exactly the bytes written ---

// {"a":[1,"x\n",2.5,null,true],"b":{}} through a writer, and as a document.
void writeSmall(falcon::JsonWriter& w) {
  w.beginObject();
  w.key("a");
  w.beginArray();
  w.value(1);
  w.value("x\n");
  w.value(2.5);
  w.null();
  w.value(true);
  w.endArray();
  w.key("b");
  w.beginObject();
  w.endObject();
  w.endObject();
}

Json smallDocument() {
  Json doc = Json::object();
  doc.set("a", Json(JsonArray{1, "x\n", 2.5, nullptr, true}));
  doc.set("b", Json::object());
  return doc;
}

TEST(JsonWriter, AppendsToANonEmptyString) {
  for (const int indent : {-1, 0, 2}) {
    std::string out = "prefix\n";
    {
      falcon::JsonWriter w(out, indent);
      writeSmall(w);
      // Trimmed as soon as the document completes.
      EXPECT_EQ(out, "prefix\n" + smallDocument().dump(indent));
    }
    EXPECT_EQ(out, "prefix\n" + smallDocument().dump(indent))
        << "indent " << indent;
  }
}

TEST(JsonWriter, WritersBackToBackShareOneString) {
  // jsonlDump's pattern: one writer per line, the newline appended while
  // the line's writer is still alive.
  std::string out;
  for (int i = 0; i < 3; ++i) {
    falcon::JsonWriter line(out);
    line.beginObject();
    line.key("i");
    line.value(i);
    line.endObject();
    out.push_back('\n');
  }
  EXPECT_EQ(out, "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n");

  // A finished writer outlives a second one whose document reallocates
  // the string; its destructor must leave the string alone.
  std::string two;
  falcon::JsonWriter first(two);
  writeSmall(first);
  {
    falcon::JsonWriter second(two);
    second.beginArray();
    for (int i = 0; i < 50000; ++i) second.value(i);
    second.endArray();
  }
  std::string ints = "[";
  for (int i = 0; i < 50000; ++i) {
    if (i > 0) ints += ',';
    ints += std::to_string(i);
  }
  ints += ']';
  EXPECT_EQ(two, smallDocument().dump(-1) + ints);
}

// Writes {"a":[1 and, with `more`, the element 2; stops mid-document.
void writeOpenDocument(falcon::JsonWriter& w, bool more) {
  w.beginObject();
  w.key("a");
  w.beginArray();
  w.value(1);
  if (more) w.value(2);
}

TEST(JsonWriter, ErrorAndEarlyDestructionLeaveExactlyTheBytesWritten) {
  const std::string compact_one = R"(pre{"a":[1)";
  const std::string compact_two = R"(pre{"a":[1,2)";
  const std::string indented_one = "pre{\n  \"a\": [\n    1";
  const std::string indented_two = "pre{\n  \"a\": [\n    1,\n    2";
  for (const int indent : {-1, 2}) {
    const std::string& one = indent < 0 ? compact_one : indented_one;
    const std::string& two = indent < 0 ? compact_two : indented_two;
    std::string out = "pre";
    {
      falcon::JsonWriter w(out, indent);
      writeOpenDocument(w, false);
      EXPECT_THROW(w.key("k"), falcon::JsonError);  // a key in an array
      EXPECT_EQ(out, one);
      EXPECT_THROW(w.endObject(), falcon::JsonError);
      EXPECT_EQ(out, one);
      // The writer goes on after a throw, then dies mid-document.
      w.value(2);
    }
    EXPECT_EQ(out, two);
    EXPECT_EQ(out.find('\0'), std::string::npos);

    std::string early = "pre";
    {
      falcon::JsonWriter w(early, indent);
      writeOpenDocument(w, true);
    }
    EXPECT_EQ(early, two) << "indent " << indent;
  }
}

TEST(JsonWriter, DocumentsLargerThanAGrowthStepMatchJsonDump) {
  // A 1 MB string with a byte to escape every 1000 bytes, then 10^5
  // scalars of every kind: many extensions of the string, one token
  // (the big string) larger than any step.
  std::string big(1 << 20, 'x');
  for (std::size_t i = 0; i < big.size(); i += 1000) {
    big[i] = "\"\\\n\x01"[(i / 1000) % 4];
  }
  std::vector<Json> scalars;
  scalars.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    switch (i % 5) {
      case 0: scalars.emplace_back(i); break;
      case 1: scalars.emplace_back(i * 0.001 + 1e-9); break;
      case 2: scalars.emplace_back(std::string("s\t").append(std::to_string(i))); break;
      case 3: scalars.emplace_back(i % 2 == 0); break;
      default: scalars.emplace_back(nullptr);
    }
  }
  Json doc = Json::object();
  doc.set("big", big);
  doc.set("scalars", Json(scalars));

  for (const int indent : {-1, 0, 2}) {
    std::string out;
    {
      falcon::JsonWriter w(out, indent);
      w.beginObject();
      w.key("big");
      w.value(big);
      w.key("scalars");
      w.beginArray();
      for (const Json& v : scalars) {
        if (v.isInt()) {
          w.value(v.asInt());
        } else if (v.isDouble()) {
          w.value(v.asDouble());
        } else if (v.isString()) {
          w.value(v.asString());
        } else if (v.isBool()) {
          w.value(v.asBool());
        } else {
          w.null();
        }
      }
      w.endArray();
      w.endObject();
    }
    const std::string dumped = doc.dump(indent);
    EXPECT_EQ(out.size(), dumped.size()) << "indent " << indent;
    EXPECT_TRUE(out == dumped) << "indent " << indent;
    // And the text reads back as the document.
    if (indent < 0) {
      EXPECT_TRUE(Json::parse(out) == doc);
    }
  }
}

// --- Chrome export rules on a hand-driven profiler ---
//
// The golden run above never repeats an argument key, escapes a string,
// records a non-finite number or writes one string in several roles.
// These traces do, and their expected text was recorded from the
// document-building exporter that preceded the streaming one.

// Strings carry a quote, a backslash, a newline and a C0 byte (0x01).
void recordEdgeCases(Simulator& sim, Profiler& prof) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::string track = "tr\"ack\\1\n\x01";
  sim.schedule(1.0 / 3.0, [&, track] {
    beginSpan(prof, track, "c\"at", "sp\\an\n\x01",
              {{"k", 1}, {"q\"\x01", "v\\al\n\x1f"}, {"k", 2.5}});
    // A repeated key keeps its first position and takes the last value,
    // across value kinds too.
    beginSpan(prof, track, "", "", {{"s", "first"}, {"n", 7}, {"s", 3}});
    endSpan(prof, track, {{"done", true}});
    instant(prof, "marks", "odd numbers",
            {{"nan", nan}, {"inf", inf}, {"ninf", -inf}, {"tiny", 1e-300}});
  });
  sim.schedule(0.5, [&, track] {
    const AsyncSpanId id = beginAsyncSpan(prof, "net", "flow\"0", {{"bytes", 1e9}});
    setCounter(prof, "link\\0", "util_pct", 12.5);
    setCounter(prof, "link\\0", "util_pct", inf);
    sim.schedule(0.25, [&, id, track] {
      prof.endAsyncSpan(id, {{"ok", 1}, {"ok", 0}});
      setCounter(prof, "link\\0", "util_pct", nan);
      endSpan(prof, track);
    });
  });
  sim.run();
}

// Strings written again in other roles: argument values first written
// as a track, a category or a name, under keys interned after them, and
// a value first written as a key. Twenty-four fresh keys make any
// per-dump table of escaped strings grow several times mid-trace.
void recordReusedStrings(Simulator& sim, Profiler& prof) {
  const std::string track = "lane\"0";
  const std::string category = "c\\at";
  const std::string name = "step\n1";
  std::vector<std::string> keys;
  for (int i = 0; i < 24; ++i) {
    keys.push_back(std::string("k\"").append(std::to_string(i)));
  }
  const std::string_view values[] = {track, category, name, keys[0]};
  beginSpan(prof, track, category, name);
  for (std::size_t first = 0; first < keys.size(); first += 6) {
    ProfileArgs args;
    for (std::size_t i = first; i < first + 6; ++i) {
      args.push_back({keys[i], values[i % 4]});
    }
    instant(prof, category, name, args);
  }
  sim.schedule(1.0, [&] { endSpan(prof, track, {{keys[23], track}}); });
  sim.run();
}

constexpr const char* kEdgeCasesCompact = R"json({"traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"composim"}},{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"tr\"ack\\1\n\u0001"}},{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"marks"}},{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"net"}},{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"link\\0"}},{"ph":"B","ts":333333.33333333331,"pid":1,"tid":0,"name":"sp\\an\n\u0001","cat":"c\"at","args":{"k":2.5,"q\"\u0001":"v\\al\n\u001f"}},{"ph":"B","ts":333333.33333333331,"pid":1,"tid":0,"args":{"s":3,"n":7}},{"ph":"E","ts":333333.33333333331,"pid":1,"tid":0,"args":{"done":1}},{"ph":"i","ts":333333.33333333331,"pid":1,"tid":1,"name":"odd numbers","cat":"marks","s":"t","args":{"nan":null,"inf":null,"ninf":null,"tiny":1e-300}},{"ph":"b","ts":500000,"pid":1,"tid":2,"name":"flow\"0","cat":"net","id":1,"args":{"bytes":1000000000}},{"ph":"C","ts":500000,"pid":1,"tid":3,"name":"link\\0","cat":"counter","args":{"util_pct":12.5}},{"ph":"C","ts":500000,"pid":1,"tid":3,"name":"link\\0","cat":"counter","args":{"util_pct":null}},{"ph":"E","ts":750000,"pid":1,"tid":0},{"ph":"e","ts":750000,"pid":1,"tid":2,"name":"flow\"0","cat":"net","id":1,"args":{"ok":0}},{"ph":"C","ts":750000,"pid":1,"tid":3,"name":"link\\0","cat":"counter","args":{"util_pct":null}}],"displayTimeUnit":"ms","otherData":{"producer":"composim.telemetry.Profiler"}})json";

constexpr const char* kEdgeCasesIndented = R"json({
  "traceEvents": [
    {
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "name": "process_name",
      "args": {
        "name": "composim"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "name": "thread_name",
      "args": {
        "name": "tr\"ack\\1\n\u0001"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 1,
      "name": "thread_name",
      "args": {
        "name": "marks"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 2,
      "name": "thread_name",
      "args": {
        "name": "net"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 3,
      "name": "thread_name",
      "args": {
        "name": "link\\0"
      }
    },
    {
      "ph": "B",
      "ts": 333333.33333333331,
      "pid": 1,
      "tid": 0,
      "name": "sp\\an\n\u0001",
      "cat": "c\"at",
      "args": {
        "k": 2.5,
        "q\"\u0001": "v\\al\n\u001f"
      }
    },
    {
      "ph": "B",
      "ts": 333333.33333333331,
      "pid": 1,
      "tid": 0,
      "args": {
        "s": 3,
        "n": 7
      }
    },
    {
      "ph": "E",
      "ts": 333333.33333333331,
      "pid": 1,
      "tid": 0,
      "args": {
        "done": 1
      }
    },
    {
      "ph": "i",
      "ts": 333333.33333333331,
      "pid": 1,
      "tid": 1,
      "name": "odd numbers",
      "cat": "marks",
      "s": "t",
      "args": {
        "nan": null,
        "inf": null,
        "ninf": null,
        "tiny": 1e-300
      }
    },
    {
      "ph": "b",
      "ts": 500000,
      "pid": 1,
      "tid": 2,
      "name": "flow\"0",
      "cat": "net",
      "id": 1,
      "args": {
        "bytes": 1000000000
      }
    },
    {
      "ph": "C",
      "ts": 500000,
      "pid": 1,
      "tid": 3,
      "name": "link\\0",
      "cat": "counter",
      "args": {
        "util_pct": 12.5
      }
    },
    {
      "ph": "C",
      "ts": 500000,
      "pid": 1,
      "tid": 3,
      "name": "link\\0",
      "cat": "counter",
      "args": {
        "util_pct": null
      }
    },
    {
      "ph": "E",
      "ts": 750000,
      "pid": 1,
      "tid": 0
    },
    {
      "ph": "e",
      "ts": 750000,
      "pid": 1,
      "tid": 2,
      "name": "flow\"0",
      "cat": "net",
      "id": 1,
      "args": {
        "ok": 0
      }
    },
    {
      "ph": "C",
      "ts": 750000,
      "pid": 1,
      "tid": 3,
      "name": "link\\0",
      "cat": "counter",
      "args": {
        "util_pct": null
      }
    }
  ],
  "displayTimeUnit": "ms",
  "otherData": {
    "producer": "composim.telemetry.Profiler"
  }
})json";

constexpr const char* kEmptyCompact = R"json({"traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"composim"}}],"displayTimeUnit":"ms","otherData":{"producer":"composim.telemetry.Profiler"}})json";

constexpr const char* kEmptyIndented = R"json({
  "traceEvents": [
    {
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "name": "process_name",
      "args": {
        "name": "composim"
      }
    }
  ],
  "displayTimeUnit": "ms",
  "otherData": {
    "producer": "composim.telemetry.Profiler"
  }
})json";

constexpr const char* kReusedStringsCompact = R"json({"traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"composim"}},{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"lane\"0"}},{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"c\\at"}},{"ph":"B","ts":0,"pid":1,"tid":0,"name":"step\n1","cat":"c\\at"},{"ph":"i","ts":0,"pid":1,"tid":1,"name":"step\n1","cat":"c\\at","s":"t","args":{"k\"0":"lane\"0","k\"1":"c\\at","k\"2":"step\n1","k\"3":"k\"0","k\"4":"lane\"0","k\"5":"c\\at"}},{"ph":"i","ts":0,"pid":1,"tid":1,"name":"step\n1","cat":"c\\at","s":"t","args":{"k\"6":"step\n1","k\"7":"k\"0","k\"8":"lane\"0","k\"9":"c\\at","k\"10":"step\n1","k\"11":"k\"0"}},{"ph":"i","ts":0,"pid":1,"tid":1,"name":"step\n1","cat":"c\\at","s":"t","args":{"k\"12":"lane\"0","k\"13":"c\\at","k\"14":"step\n1","k\"15":"k\"0","k\"16":"lane\"0","k\"17":"c\\at"}},{"ph":"i","ts":0,"pid":1,"tid":1,"name":"step\n1","cat":"c\\at","s":"t","args":{"k\"18":"step\n1","k\"19":"k\"0","k\"20":"lane\"0","k\"21":"c\\at","k\"22":"step\n1","k\"23":"k\"0"}},{"ph":"E","ts":1000000,"pid":1,"tid":0,"args":{"k\"23":"lane\"0"}}],"displayTimeUnit":"ms","otherData":{"producer":"composim.telemetry.Profiler"}})json";

constexpr const char* kReusedStringsIndented = R"json({
  "traceEvents": [
    {
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "name": "process_name",
      "args": {
        "name": "composim"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "name": "thread_name",
      "args": {
        "name": "lane\"0"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 1,
      "name": "thread_name",
      "args": {
        "name": "c\\at"
      }
    },
    {
      "ph": "B",
      "ts": 0,
      "pid": 1,
      "tid": 0,
      "name": "step\n1",
      "cat": "c\\at"
    },
    {
      "ph": "i",
      "ts": 0,
      "pid": 1,
      "tid": 1,
      "name": "step\n1",
      "cat": "c\\at",
      "s": "t",
      "args": {
        "k\"0": "lane\"0",
        "k\"1": "c\\at",
        "k\"2": "step\n1",
        "k\"3": "k\"0",
        "k\"4": "lane\"0",
        "k\"5": "c\\at"
      }
    },
    {
      "ph": "i",
      "ts": 0,
      "pid": 1,
      "tid": 1,
      "name": "step\n1",
      "cat": "c\\at",
      "s": "t",
      "args": {
        "k\"6": "step\n1",
        "k\"7": "k\"0",
        "k\"8": "lane\"0",
        "k\"9": "c\\at",
        "k\"10": "step\n1",
        "k\"11": "k\"0"
      }
    },
    {
      "ph": "i",
      "ts": 0,
      "pid": 1,
      "tid": 1,
      "name": "step\n1",
      "cat": "c\\at",
      "s": "t",
      "args": {
        "k\"12": "lane\"0",
        "k\"13": "c\\at",
        "k\"14": "step\n1",
        "k\"15": "k\"0",
        "k\"16": "lane\"0",
        "k\"17": "c\\at"
      }
    },
    {
      "ph": "i",
      "ts": 0,
      "pid": 1,
      "tid": 1,
      "name": "step\n1",
      "cat": "c\\at",
      "s": "t",
      "args": {
        "k\"18": "step\n1",
        "k\"19": "k\"0",
        "k\"20": "lane\"0",
        "k\"21": "c\\at",
        "k\"22": "step\n1",
        "k\"23": "k\"0"
      }
    },
    {
      "ph": "E",
      "ts": 1000000,
      "pid": 1,
      "tid": 0,
      "args": {
        "k\"23": "lane\"0"
      }
    }
  ],
  "displayTimeUnit": "ms",
  "otherData": {
    "producer": "composim.telemetry.Profiler"
  }
})json";

std::string traceOf(void (*record)(Simulator&, Profiler&), int indent) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  if (record != nullptr) record(sim, prof);
  prof.finalize();
  return prof.chromeTrace().dump(indent);
}

void expectEveryIndentMatchesDocument(void (*record)(Simulator&, Profiler&)) {
  // Other indents: the same bytes as the parsed document dumped there.
  const Json doc = Json::parse(traceOf(record, -1));
  for (const int indent : {0, 1, 4}) {
    EXPECT_EQ(traceOf(record, indent), doc.dump(indent)) << "indent " << indent;
  }
}

TEST(ChromeExport, EdgeCasesMatchRecordedText) {
  EXPECT_EQ(traceOf(recordEdgeCases, -1), kEdgeCasesCompact);
  EXPECT_EQ(traceOf(recordEdgeCases, 2), kEdgeCasesIndented);
  expectEveryIndentMatchesDocument(recordEdgeCases);
}

TEST(ChromeExport, ReusedStringsMatchRecordedText) {
  EXPECT_EQ(traceOf(recordReusedStrings, -1), kReusedStringsCompact);
  EXPECT_EQ(traceOf(recordReusedStrings, 2), kReusedStringsIndented);
  expectEveryIndentMatchesDocument(recordReusedStrings);
}

TEST(ChromeExport, EmptyTraceMatchesRecordedText) {
  EXPECT_EQ(traceOf(nullptr, -1), kEmptyCompact);
  EXPECT_EQ(traceOf(nullptr, 2), kEmptyIndented);
  expectEveryIndentMatchesDocument(nullptr);
}

TEST(ChromeExport, StringsInternedBetweenDumpsAreEscaped) {
  // Each dump escapes the string table as it stands, so strings interned
  // after an earlier dump (here ones that need escaping) are written
  // right by the next one.
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  const auto expectDumpsAreDocuments = [&prof] {
    for (const int indent : {-1, 0, 2}) {
      const std::string text = prof.chromeTrace().dump(indent);
      EXPECT_EQ(text, Json::parse(text).dump(indent)) << "indent " << indent;
    }
  };
  beginSpan(prof, "lane", "step", "first");
  expectDumpsAreDocuments();
  sim.schedule(1.0, [&] {
    instant(prof, "new\"cat", "new\nname\x01",
            {{"key\\new", "val\"ue\x1f"}, {"n", 1}});
    endSpan(prof, "lane", {{"tail\tkey", "tail\\value"}});
  });
  sim.run();
  expectDumpsAreDocuments();
  const std::string compact = prof.chromeTrace().dump(-1);
  for (const char* escaped :
       {R"("new\"cat")", R"("new\nname\u0001")", R"("key\\new")",
        R"("val\"ue\u001f")", R"("tail\tkey")", R"("tail\\value")"}) {
    EXPECT_NE(compact.find(escaped), std::string::npos) << escaped;
  }
}

// --- golden digests of a traced run ---

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(ExportGolden, TracedBertFalconRunMatchesRecordedDigests) {
  core::ExperimentOptions options;
  options.workload = "BERT-L";
  options.trainer.epochs = 1;
  options.trainer.max_iterations_per_epoch = 3;
  options.analysis = true;  // implies trace
  const core::ExperimentResult r =
      core::Experiment::run(core::SystemConfig::FalconGpus, options);
  ASSERT_TRUE(r.profiler);
  ASSERT_TRUE(r.analysis);
  const telemetry::ChromeTrace trace = r.profiler->chromeTrace();
  const std::string compact = trace.dump(-1);
  const std::string indented = trace.dump(2);
  const std::string analysis =
      telemetry::analysis::toJson(*r.analysis).dump(2);
  // Recorded from the string-keyed profiler and the printf-based writer;
  // sizes first so a mismatch says how far off it is.
  EXPECT_EQ(compact.size(), 3075995u);
  EXPECT_EQ(indented.size(), 4925647u);
  EXPECT_EQ(analysis.size(), 9744u);
  EXPECT_EQ(fnv1a(compact), 13902716049860420799ULL);
  EXPECT_EQ(fnv1a(indented), 9015517368192167413ULL);
  EXPECT_EQ(fnv1a(analysis), 9973713041911755613ULL);
  // The same run's metrics exports, recorded from the snprintf-based
  // formatter and the Json-document JSONL writer.
  ASSERT_TRUE(r.metrics);
  const std::string prometheus = r.metrics->prometheusText();
  const std::string jsonl = r.metrics->jsonlDump();
  EXPECT_EQ(prometheus.size(), 4864u);
  EXPECT_EQ(jsonl.size(), 71563u);
  EXPECT_EQ(fnv1a(prometheus), 2408405578169093769ULL);
  EXPECT_EQ(fnv1a(jsonl), 18314470968723239546ULL);
}

}  // namespace
}  // namespace composim
