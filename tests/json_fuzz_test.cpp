// Seeded mutation fuzz of the user-facing JSON loaders. Each checked-in
// operator graph (examples/graphs/*.graph.json) and the paper-evaluation
// suite (examples/suites/paper_evaluation.json), plus the documented
// --faults and --metrics examples, are mutated with byte flips, inserts,
// deletes, duplications, truncations, bracket runs and number swaps, and
// every mutant goes through the typed loader a user's file would reach.
// The contract is ROADMAP's robustness aim: ok, or a non-OK Status with a
// code and a reason; never a crash and never an escaped exception.
// Mutants are reproducible from the input and the iteration number.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/experiment_config.hpp"
#include "dl/workload_registry.hpp"

namespace composim {
namespace {

constexpr int kMutantsPerInput = 250;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Bytes a mutation inserts or substitutes: JSON structure and number
/// syntax, whitespace, and bytes no JSON text should hold.
constexpr std::string_view kInteresting =
    "{}[]:,\"\\-+.eE0123456789 \ntfnul\x01\x7f\x80\xff";

/// Numbers a swap substitutes for a number in the text: signs, zero,
/// fractions, the double and int64 edges, and overflow.
const std::vector<std::string> kNumbers = {
    "-1", "0", "-0", "0.5", "1e308", "-1e308", "1e999", "4294967296",
    "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    "1e-320", "123456789012345678901234567890"};

/// Applies one to three seeded mutations to `text`.
std::string mutate(std::string text, std::mt19937_64& rng) {
  auto pick = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  const std::size_t ops = 1 + pick(3);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t at = pick(text.size());
    switch (pick(8)) {
      case 0:  // flip one bit
        if (!text.empty()) text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
        break;
      case 1:  // substitute an interesting byte
        if (!text.empty()) text[at] = kInteresting[pick(kInteresting.size())];
        break;
      case 2:  // insert one to four interesting bytes
        for (std::size_t n = 1 + pick(4); n > 0; --n) {
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                      kInteresting[pick(kInteresting.size())]);
        }
        break;
      case 3:  // delete up to 16 bytes
        text.erase(at, 1 + pick(16));
        break;
      case 4: {  // duplicate a chunk somewhere else
        const std::string chunk = text.substr(at, 1 + pick(64));
        text.insert(pick(text.size() + 1), chunk);
        break;
      }
      case 5:  // truncate
        text.resize(at);
        break;
      case 6:  // open up to 2,000 brackets: past Json::kMaxDepth
        text.insert(at, 1 + pick(2000), "[{"[pick(2)]);
        break;
      default: {  // swap the number at or after `at` for an edge value
        const std::size_t first = text.find_first_of("0123456789", at);
        if (first == std::string::npos) break;
        const std::size_t last = text.find_first_not_of("0123456789.eE+-", first);
        text.replace(first, (last == std::string::npos ? text.size() : last) - first,
                     kNumbers[pick(kNumbers.size())]);
      }
    }
  }
  return text;
}

/// One fuzz input: a seed document and the typed loader it feeds, which
/// reads a spec from a file path.
struct Input {
  std::string name;
  std::string text;
  std::function<Status(const std::string& path)> load;
};

Status loadGraph(const std::string& path) {
  dl::ModelSpec spec;
  return dl::WorkloadRegistry::instance().loadGraph(path, &spec);
}

Status loadSuite(const std::string& path) {
  std::vector<core::ExperimentSpec> specs;
  return core::loadExperimentSuite(path, &specs);
}

Status loadFaults(const std::string& path) {
  core::FaultsConfig faults;
  return core::loadFaultsConfig(path, &faults);
}

Status loadMetrics(const std::string& path) {
  core::MetricsConfig metrics;
  return core::loadMetricsConfig(path, &metrics);
}

std::vector<Input> inputs() {
  const std::string examples = COMPOSIM_EXAMPLES_DIR;
  std::vector<Input> in;
  for (const char* graph : {"bert", "bert_l", "gpt_2_medium", "mobilenetv2",
                            "resnet_50", "vit_b_16", "yolov5_l"}) {
    in.push_back({graph,
                  readFile(examples + "/graphs/" + graph + ".graph.json"),
                  loadGraph});
  }
  in.push_back({"paper_evaluation",
                readFile(examples + "/suites/paper_evaluation.json"),
                loadSuite});
  // The documented examples of core/experiment_config.hpp.
  in.push_back({"faults",
                R"({"seed": 7, "poll_interval": 0.5, "spare_gpus": 2,
                    "attach_failure_rate": 0.3, "max_attach_retries": 6,
                    "attach_backoff_initial": 0.25,
                    "attach_backoff_multiplier": 2.0,
                    "attach_backoff_max": 4.0, "attach_backoff_jitter": 0.2,
                    "attach_retry_budget": 30.0,
                    "proactive_on_error_storm": true,
                    "gpu_falloffs": [{"gpu": 5, "at": 30.0}],
                    "ecc_storms": [{"gpu": 1, "at": 12.0, "errors": 500}],
                    "host_port_flaps": [{"port": 2, "at": 60.0,
                                         "downtime": 2.0}]})",
                loadFaults});
  in.push_back({"metrics",
                R"({"scrape_interval": 0.25,
                    "alerts": ["link_util_pct > 95 for 2s",
                               "ecc: ecc_errors_total rate > 0"]})",
                loadMetrics});
  return in;
}

class JsonFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JsonFuzz, EveryMutantLoadsOrFailsWithATypedStatus) {
  const Input input = inputs().at(GetParam());
  ASSERT_FALSE(input.text.empty()) << input.name << " is missing";
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("json_fuzz_" + input.name + "_" + std::to_string(::getpid()) + ".json"))
          .string();
  // The unmutated document loads.
  {
    std::ofstream(path) << input.text;
    const Status s = input.load(path);
    EXPECT_TRUE(s.ok) << input.name << ": " << s.toString();
  }
  std::mt19937_64 rng(0x5eed0000 + GetParam());
  int rejected = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string mutant = mutate(input.text, rng);
    std::ofstream(path, std::ios::trunc) << mutant;
    const std::string where = input.name + " mutant " + std::to_string(i);
    try {
      const Status s = input.load(path);
      if (!s.ok) {
        ++rejected;
        EXPECT_NE(s.code, StatusCode::Ok) << where;
        EXPECT_FALSE(s.detail.empty()) << where;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": escaped exception: " << e.what()
                    << "\n--- mutant ---\n" << mutant;
    } catch (...) {
      ADD_FAILURE() << where << ": escaped non-standard exception";
    }
  }
  std::filesystem::remove(path);
  // Most mutants break the document; a fuzzer whose mutants all load
  // tests nothing.
  EXPECT_GT(rejected, kMutantsPerInput / 2) << input.name;
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, JsonFuzz, ::testing::Range<std::size_t>(0, inputs().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return inputs().at(info.param).name;
    });

// Number swaps the fuzzer found: each size was accepted and lowering's
// int64 cost products overflowed (BERT's FFN params hidden * ff, a conv's
// kernel^2 * in * out). Graph::validate now rejects sizes over 2^20 and
// kernels over 2^10.
TEST(JsonFuzzRegression, OversizedOpAttributesAreRejected) {
  const std::string examples = COMPOSIM_EXAMPLES_DIR;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("json_fuzz_regression_" + std::to_string(::getpid()) + ".json"))
          .string();
  struct Case {
    const char* graph;
    std::string_view from;
    std::string_view to;
  };
  for (const Case& c :
       {Case{"bert", R"("ff": 3072)", R"("ff": 9223372036854775807)"},
        Case{"resnet_50", R"("kernel": 7)", R"("kernel": 4294967296)"}}) {
    std::string text =
        readFile(examples + "/graphs/" + c.graph + ".graph.json");
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.graph;
    text.replace(at, c.from.size(), c.to);
    std::ofstream(path, std::ios::trunc) << text;
    const Status s = loadGraph(path);
    EXPECT_FALSE(s.ok) << c.graph;
    EXPECT_EQ(s.code, StatusCode::InvalidArgument) << s.toString();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace composim
