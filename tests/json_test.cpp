// Tests for the minimal JSON reader/writer used by configuration
// import/export, and for the nesting cap every user-supplied JSON input
// (suite, --faults, --metrics, graph: files) is parsed under.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/experiment_config.hpp"
#include "dl/graph_ir/loader.hpp"
#include "dl/workload_registry.hpp"
#include "falcon/json.hpp"

namespace composim::falcon {
namespace {

TEST(Json, ScalarTypesRoundTrip) {
  EXPECT_EQ(Json::parse("null"), Json(nullptr));
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("42"), Json(std::int64_t{42}));
  EXPECT_EQ(Json::parse("-17"), Json(std::int64_t{-17}));
  EXPECT_DOUBLE_EQ(Json::parse("3.25").asDouble(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, IntAndDoubleInterconvert) {
  EXPECT_DOUBLE_EQ(Json(std::int64_t{7}).asDouble(), 7.0);
  EXPECT_EQ(Json(2.9).asInt(), 2);
  EXPECT_THROW(Json("x").asInt(), JsonError);
}

TEST(Json, ObjectInsertOrderPreserved) {
  Json o = Json::object();
  o.set("z", 1);
  o.set("a", 2);
  o.set("m", 3);
  EXPECT_EQ(o.dump(-1), "{\"z\":1,\"a\":2,\"m\":3}");
  o.set("a", 9);  // overwrite keeps position
  EXPECT_EQ(o.at("a").asInt(), 9);
  EXPECT_EQ(o.dump(-1), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(Json, FindAndAtSemantics) {
  Json o = Json::object();
  o.set("k", "v");
  EXPECT_NE(o.find("k"), nullptr);
  EXPECT_EQ(o.find("missing"), nullptr);
  EXPECT_THROW(o.at("missing"), JsonError);
  EXPECT_THROW(Json(3).at("k"), JsonError);
}

TEST(Json, NestedRoundTrip) {
  const std::string text = R"({
    "chassis": "falcon0",
    "drawers": [
      {"index": 0, "mode": "Standard",
       "slots": [{"index": 0, "type": "GPU", "port": -1}]},
      {"index": 1, "mode": "Advanced", "slots": []}
    ],
    "ratio": 0.5,
    "ok": true
  })";
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.at("chassis").asString(), "falcon0");
  EXPECT_EQ(parsed.at("drawers").asArray().size(), 2u);
  EXPECT_EQ(parsed.at("drawers").asArray()[0].at("slots").asArray()[0]
                .at("port").asInt(), -1);
  // dump -> parse -> dump is a fixed point.
  const std::string once = parsed.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(Json, StringEscapes) {
  Json s(std::string("line\n\t\"quoted\" \\slash"));
  const std::string dumped = s.dump();
  EXPECT_EQ(Json::parse(dumped).asString(), s.asString());
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
}

TEST(Json, ControlCharactersEscapedOnOutput) {
  Json s(std::string("a\x01" "b"));
  EXPECT_EQ(s.dump(), "\"a\\u0001b\"");
}

TEST(Json, ParseErrorsCarryOffsets) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("-"), JsonError);
  try {
    Json::parse("[1, x]");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").asArray().size(), 0u);
  EXPECT_EQ(Json::parse("{}").asObject().size(), 0u);
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(), "{}");
}

TEST(Json, WhitespaceTolerant) {
  const Json v = Json::parse("  {  \"a\" :\n [ 1 ,\t2 ]  } ");
  EXPECT_EQ(v.at("a").asArray()[1].asInt(), 2);
}

TEST(Json, CompactVersusIndented) {
  Json o = Json::object();
  o.set("a", JsonArray{Json(1), Json(2)});
  EXPECT_EQ(o.dump(-1), "{\"a\":[1,2]}");
  const std::string pretty = o.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), o);
}

TEST(Json, PushOntoArray) {
  Json a = Json::array();
  a.push(1);
  a.push("two");
  EXPECT_EQ(a.asArray().size(), 2u);
  EXPECT_THROW(Json(1).push(2), JsonError);
}

/// `depth` nested arrays around a 1.
std::string nestedArrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') + "1" +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonDepth, ThousandLevelsParse) {
  Json v = Json::parse(nestedArrays(1000));
  int depth = 0;
  while (v.isArray()) {
    Json inner = v.asArray().at(0);  // copy before replacing the parent
    v = std::move(inner);
    ++depth;
  }
  EXPECT_EQ(depth, 1000);
  EXPECT_EQ(v.asInt(), 1);
}

TEST(JsonDepth, CapIsExact) {
  EXPECT_NO_THROW(Json::parse(nestedArrays(Json::kMaxDepth)));
  EXPECT_THROW(Json::parse(nestedArrays(Json::kMaxDepth + 1)), JsonError);
  // Objects and arrays count toward the same cap.
  std::string mixed;
  for (int i = 0; i <= Json::kMaxDepth / 2; ++i) mixed += "{\"k\":[";
  EXPECT_THROW(Json::parse(mixed), JsonError);
}

TEST(JsonDepth, MillionLevelsThrowInsteadOfCrashing) {
  // Unterminated, like a hostile input: the cap trips long before the
  // parser could run out of stack.
  const std::string deep(1000000, '[');
  try {
    Json::parse(deep);
    FAIL() << "parse accepted 1,000,000 nested arrays";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos)
        << e.what();
  }
}

/// Inline spec text: an object whose first value nests a million deep.
std::string deepSpec(const char* key) {
  return std::string("{\"") + key + "\": " + std::string(1000000, '[');
}

TEST(JsonDepth, SuiteLoaderReturnsInvalidArgument) {
  std::vector<core::ExperimentSpec> specs;
  const Status st = core::loadExperimentSuite(deepSpec("experiments"), &specs);
  EXPECT_EQ(st.code, StatusCode::InvalidArgument) << st.toString();
  EXPECT_TRUE(specs.empty());
}

TEST(JsonDepth, FaultsLoaderReturnsInvalidArgument) {
  core::FaultsConfig faults;
  const Status st = core::loadFaultsConfig(deepSpec("gpu_falloffs"), &faults);
  EXPECT_EQ(st.code, StatusCode::InvalidArgument) << st.toString();
  EXPECT_FALSE(faults.enabled);
}

TEST(JsonDepth, MetricsLoaderReturnsInvalidArgument) {
  core::MetricsConfig metrics;
  const Status st = core::loadMetricsConfig(deepSpec("alerts"), &metrics);
  EXPECT_EQ(st.code, StatusCode::InvalidArgument) << st.toString();
}

TEST(JsonDepth, GraphLoaderReturnsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "deep.graph.json";
  {
    std::ofstream out(path);
    out << deepSpec("ops");
  }
  dl::graph_ir::Graph g;
  EXPECT_EQ(dl::graph_ir::loadGraphFile(path, &g).code,
            StatusCode::InvalidArgument);
  // The same file through a workload reference.
  dl::ModelSpec model;
  const Status st =
      dl::WorkloadRegistry::instance().resolve("graph:" + path, &model);
  EXPECT_EQ(st.code, StatusCode::InvalidArgument) << st.toString();
  std::remove(path.c_str());
}

TEST(JsonDepth, SpecLoadersKeepTheirOtherCodes) {
  core::FaultsConfig faults;
  EXPECT_EQ(core::loadFaultsConfig("no/such/faults.json", &faults).code,
            StatusCode::NotFound);
  EXPECT_EQ(core::loadFaultsConfig(R"({"bogus": 1})", &faults).code,
            StatusCode::InvalidArgument);
  core::MetricsConfig metrics;
  EXPECT_TRUE(core::loadMetricsConfig(R"({"scrape_interval": 0.5})",
                                      &metrics).ok);
  EXPECT_DOUBLE_EQ(metrics.scrape_interval, 0.5);
}

}  // namespace
}  // namespace composim::falcon
