// Byte-identity tests for the export path: the JSON writer's number and
// string formatting against their printf-era definitions, and golden
// digests of a traced BERT-L run's Chrome trace and analysis JSON. The
// digests pin every exported byte, so any change to the profiler's record
// layout or the writer must reproduce them exactly.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "core/experiment.hpp"
#include "falcon/json.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/profiler.hpp"

namespace composim {
namespace {

using falcon::Json;

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
  const Json trace = r.profiler->chromeTrace();
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
}

}  // namespace
}  // namespace composim
