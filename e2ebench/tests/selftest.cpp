// Self-tests for the benchmark's own logic: the tail-percentile rule, the
// failure accounting, the seeded fault schedules, and the determinism of
// the per-layer counters. Run with `python3 e2ebench/run.py --selftest`
// from the repository root.
#include <gtest/gtest.h>

#include <map>

#include "checks.hpp"
#include "core/experiment_config.hpp"
#include "inputs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

using namespace composim;

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  const Tail t100 = tailPercentile(oneTo(100));
  EXPECT_EQ(t100.per_mille, 900);
  EXPECT_EQ(t100.beyond, 10u);
  EXPECT_EQ(t100.value, 90.0);
  EXPECT_TRUE(t100.qualified);

  const Tail t1000 = tailPercentile(oneTo(1000));
  EXPECT_EQ(t1000.per_mille, 990);  // p99.9 would leave only 1 beyond
  EXPECT_EQ(t1000.beyond, 10u);

  const Tail t25 = tailPercentile(oneTo(25));
  EXPECT_EQ(t25.per_mille, 500);
  EXPECT_EQ(t25.beyond, 12u);
  EXPECT_EQ(t25.value, 13.0);
}

TEST(TailPercentile, FewerThanTwentySamplesIsUnqualifiedMedian) {
  const Tail t20 = tailPercentile(oneTo(20));
  EXPECT_TRUE(t20.qualified);
  EXPECT_EQ(t20.beyond, 10u);
  const Tail t19 = tailPercentile(oneTo(19));
  EXPECT_FALSE(t19.qualified);
  EXPECT_EQ(t19.per_mille, 500);
  EXPECT_EQ(t19.value, 10.0);
  EXPECT_EQ(tailPercentile({}).samples, 0u);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(FailureAccounting, EveryFailedCheckCountsAgainstAttempted) {
  Report rep;
  rep.tally("");
  rep.tally("threw: watchdog: simulation still live");
  rep.tally("");
  rep.tally("experiment 3 digest 00 != recorded 01");
  EXPECT_EQ(rep.attempted, 4);
  EXPECT_EQ(rep.failed, 2);
  EXPECT_EQ(rep.failures.size(), 2u);
  EXPECT_FALSE(rep.correct());

  Report clean;
  clean.tally("");
  EXPECT_TRUE(clean.correct());
  clean.failures.push_back("Fig 11 ratio out of range");
  EXPECT_FALSE(clean.correct());
}

TEST(DigestCheck, UnrecordedSeedMustRepeatItsFirstPass) {
  DigestCheck check({});
  EXPECT_EQ(check.check(0, "aa"), "");
  EXPECT_EQ(check.check(2, "cc"), "");  // index 1 failed before digesting
  EXPECT_EQ(check.check(0, "aa"), "");
  EXPECT_NE(check.check(2, "cd"), "");
  EXPECT_EQ(check.check(1, "bb"), "");
  EXPECT_EQ(check.observed(), (std::vector<std::string>{"aa", "bb", "cc"}));
}

TEST(DigestCheck, RecordedSeedMustMatchTheRecord) {
  DigestCheck check({"aa", "bb"});
  EXPECT_EQ(check.check(0, "aa"), "");
  EXPECT_NE(check.check(1, "bx"), "");
  EXPECT_NE(check.check(2, "cc"), "");  // more experiments than recorded
}

TEST(Digest, CoversTheSimulatedResultsAtFullPrecision) {
  core::ExperimentResult a;
  a.benchmark = "BERT-L";
  a.training.completed = true;
  a.training.iterations_run = 300;
  a.training.extrapolated_total_time = 1.0;
  core::ExperimentResult b = a;
  EXPECT_EQ(digestOf(a), digestOf(b));
  EXPECT_EQ(digestOf(a).size(), 16u);
  b.training.extrapolated_total_time = 1.0 + 1e-15;
  EXPECT_NE(digestOf(a), digestOf(b));
  b = a;
  b.gpu_util_pct = 1e-300;
  EXPECT_NE(digestOf(a), digestOf(b));
}

TEST(FaultSuite, SameSeedGivesByteIdenticalSchedulesAfterTheBoundary) {
  constexpr double kBoundary = 19.377;
  const auto dump = [](const std::vector<core::ExperimentSpec>& specs) {
    std::string out;
    for (const auto& s : specs) {
      out += s.name + core::faultsConfigToJson(s.options.faults).dump(-1);
    }
    return out;
  };
  for (const std::uint64_t seed : {0ULL, 1ULL, 7ULL, 1009ULL}) {
    const auto a = faultSuite(seed, kBoundary);
    const auto b = faultSuite(seed, kBoundary);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(kSweepSpecs));
    EXPECT_EQ(dump(a), dump(b));
    std::map<std::string, int> prefix_keys;
    for (const auto& s : a) {
      EXPECT_GT(core::earliestFaultTime(s.options.faults), kBoundary) << s.name;
      EXPECT_GT(s.options.watchdog, 0.0);
      EXPECT_TRUE(core::warmPrefixApplicable(s));
      ++prefix_keys[core::warmPrefixKey(s)];
    }
    EXPECT_EQ(prefix_keys.size(), 1u) << "specs must share one warm prefix";
  }
  EXPECT_NE(dump(faultSuite(1, kBoundary)), dump(faultSuite(2, kBoundary)));
}

TEST(Ledger, CountersRepeatExactlyAcrossRunsOfOneSeed) {
  RunArgs args;
  args.workload = kFaultSweep;
  args.seed = 5;
  args.seconds = 0.0;  // one pass of each workload's ledger
  const Report a = runLedger(args, "");
  const Report b = runLedger(args, "");
  ASSERT_TRUE(a.correct()) << (a.failures.empty() ? "" : a.failures.front());
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  int counts = 0;
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    const Metric& m = a.metrics[i];
    // Host times vary; every count, ratio and export size is simulated
    // work and must repeat.
    if (m.unit != "count" && m.unit != "ratio" &&
        m.name != "telemetry.chrome_export_mb") {
      continue;
    }
    ++counts;
    EXPECT_EQ(m.value, b.metrics[i].value) << m.name;
  }
  EXPECT_GE(counts, 15);
}

}  // namespace
}  // namespace e2ebench
