// Tests for the experiment runner and the topology recommender.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/recommender.hpp"

namespace composim::core {
namespace {

ExperimentOptions fastOptions() {
  ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 6;
  opt.sample_interval = 0.25;
  return opt;
}

TEST(Experiment, ProducesSummariesInPlausibleRanges) {
  const auto r = Experiment::run(SystemConfig::LocalGpus, dl::workload("MobileNetV2"),
                                 fastOptions());
  EXPECT_TRUE(r.training.completed);
  EXPECT_EQ(r.benchmark, "MobileNetV2");
  EXPECT_EQ(r.config, SystemConfig::LocalGpus);
  EXPECT_GT(r.gpu_util_pct, 30.0);
  EXPECT_LE(r.gpu_util_pct, 100.5);
  EXPECT_GT(r.gpu_mem_util_pct, 5.0);
  EXPECT_LE(r.gpu_mem_util_pct, 100.0);
  EXPECT_GE(r.gpu_mem_access_pct, 0.0);
  EXPECT_LE(r.gpu_mem_access_pct, r.gpu_util_pct + 1.0);
  EXPECT_GT(r.cpu_util_pct, 0.5);
  EXPECT_LT(r.cpu_util_pct, 80.0);
  EXPECT_GT(r.host_mem_util_pct, 1.0);
  EXPECT_LT(r.host_mem_util_pct, 30.0);
  // No Falcon devices involved: the ports carry nothing.
  EXPECT_NEAR(r.falcon_pcie_gbs, 0.0, 1e-9);
}

TEST(Experiment, FalconConfigShowsPcieTraffic) {
  const auto r = Experiment::run(SystemConfig::FalconGpus, dl::workload("MobileNetV2"),
                                 fastOptions());
  EXPECT_GT(r.falcon_pcie_gbs, 0.1);
}

TEST(Experiment, SamplerSeriesAreExposed) {
  const auto r = Experiment::run(SystemConfig::LocalGpus, dl::workload("MobileNetV2"),
                                 fastOptions());
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_TRUE(r.metrics->hasSeries("gpu_util_pct"));
  EXPECT_TRUE(r.metrics->hasSeries("falcon_pcie_gbs"));
  EXPECT_GE(r.metrics->series("gpu_util_pct").size(), 3u);
}

TEST(Experiment, TrainingTimeChangePct) {
  ExperimentResult base, other;
  base.training.extrapolated_total_time = 100.0;
  other.training.extrapolated_total_time = 150.0;
  EXPECT_DOUBLE_EQ(Experiment::trainingTimeChangePct(other, base), 50.0);
  EXPECT_DOUBLE_EQ(Experiment::trainingTimeChangePct(base, base), 0.0);
  base.training.extrapolated_total_time = 0.0;
  EXPECT_DOUBLE_EQ(Experiment::trainingTimeChangePct(other, base), 0.0);
}

TEST(Recommender, PicksFastestMeasuredConfig) {
  Recommender rec;
  RunRecord a{"m", SystemConfig::LocalGpus, 100.0, 10.0, 1e6, 1e9};
  RunRecord b{"m", SystemConfig::FalconGpus, 150.0, 7.0, 1e6, 1e9};
  RunRecord c{"m", SystemConfig::HybridGpus, 140.0, 8.0, 1e6, 1e9};
  rec.addRun(a);
  rec.addRun(b);
  rec.addRun(c);
  const auto best = rec.recommendFor("m");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->config, SystemConfig::LocalGpus);
  EXPECT_DOUBLE_EQ(best->expected_time_seconds, 100.0);
  EXPECT_NEAR(best->composability_overhead_pct, 40.0, 1e-9);  // 140 vs 100
}

TEST(Recommender, UnknownBenchmarkYieldsNothing) {
  Recommender rec;
  EXPECT_FALSE(rec.recommendFor("nope").has_value());
  EXPECT_FALSE(rec.recommendFor(dl::workload("MobileNetV2")).has_value());
}

TEST(Recommender, UnseenModelMatchesByCharacteristics) {
  Recommender rec;
  // A tiny vision model measured fastest on falcon; a huge NLP model
  // fastest on local.
  rec.addRun(RunRecord{"small-cnn", SystemConfig::FalconGpus, 50.0, 20.0,
                       7e6, 6e8});
  rec.addRun(RunRecord{"small-cnn", SystemConfig::LocalGpus, 55.0, 18.0,
                       7e6, 6e8});
  rec.addRun(RunRecord{"huge-lm", SystemConfig::LocalGpus, 200.0, 5.0,
                       6.7e8, 2.6e11});
  rec.addRun(RunRecord{"huge-lm", SystemConfig::FalconGpus, 390.0, 2.5,
                       6.7e8, 2.6e11});
  // BERT-large resembles huge-lm, MobileNet resembles small-cnn.
  const auto lm = rec.recommendFor(dl::workload("BERT-L"));
  ASSERT_TRUE(lm.has_value());
  EXPECT_EQ(lm->config, SystemConfig::LocalGpus);
  const auto cnn = rec.recommendFor(dl::workload("MobileNetV2"));
  ASSERT_TRUE(cnn.has_value());
  EXPECT_EQ(cnn->config, SystemConfig::FalconGpus);
}

TEST(Recommender, AddRunFromExperimentResult) {
  Recommender rec;
  ExperimentResult r;
  r.benchmark = "MobileNetV2";
  r.config = SystemConfig::LocalGpus;
  r.training.extrapolated_total_time = 42.0;
  r.training.samples_per_second = 1000.0;
  rec.addRun(r, dl::workload("MobileNetV2"));
  EXPECT_EQ(rec.runCount(), 1u);
  const auto best = rec.recommendFor("MobileNetV2");
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->expected_time_seconds, 42.0);
}

// Exact simulator work for a fixed spec set. Only a change whose purpose
// is to change the work re-records these, and says so in its notes.
// Tracing must not change any of it: the traced run matches the untraced
// pin except for the profiler records it adds.
struct WorkPin {
  const char* workload;
  SystemConfig config;
  WorkCounters work;
};

constexpr WorkPin kWorkPins[] = {
    // events, flows, recomputes, solves, kernels, collective ops, records
    {"BERT-L", SystemConfig::LocalGpus, {10283, 22595, 4443, 22595, 3680, 100, 0}},
    {"BERT-L", SystemConfig::FalconGpus, {11673, 11395, 4443, 11395, 3680, 100, 0}},
    {"ResNet-50", SystemConfig::LocalGpus, {9110, 18115, 3603, 18115, 3680, 80, 0}},
    {"ResNet-50", SystemConfig::FalconGpus, {10150, 9155, 3603, 9155, 3680, 80, 0}},
};

ExperimentOptions twentyIterations() {
  ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 20;
  return opt;
}

void expectWork(const WorkCounters& got, const WorkCounters& want) {
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.flows, want.flows);
  EXPECT_EQ(got.recomputes, want.recomputes);
  EXPECT_EQ(got.solves, want.solves);
  EXPECT_EQ(got.kernels, want.kernels);
  EXPECT_EQ(got.collective_ops, want.collective_ops);
  EXPECT_EQ(got.profiler_records, want.profiler_records);
}

TEST(WorkCounters, PinnedForFixedSpecSet) {
  for (const WorkPin& pin : kWorkPins) {
    SCOPED_TRACE(std::string(pin.workload) + " on " + toString(pin.config));
    const auto r = Experiment::run(pin.config, dl::workload(pin.workload),
                                   twentyIterations());
    ASSERT_TRUE(r.training.completed);
    expectWork(r.work, pin.work);
  }
}

TEST(WorkCounters, TracingAddsOnlyProfilerRecords) {
  const WorkPin& pin = kWorkPins[0];
  ExperimentOptions opt = twentyIterations();
  opt.trace = true;
  const auto r = Experiment::run(pin.config, dl::workload(pin.workload), opt);
  ASSERT_NE(r.profiler, nullptr);
  WorkCounters want = pin.work;
  want.profiler_records = r.profiler->recordCount();
  EXPECT_GT(want.profiler_records, 0u);
  expectWork(r.work, want);
}

}  // namespace
}  // namespace composim::core
