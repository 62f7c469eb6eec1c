// Tests for the bottleneck-attribution analyzer (telemetry::analysis):
// closed-form bucket decomposition and critical-path extraction over a
// hand-built trace, link-contention replay, run-diff semantics, the
// experiment/options wiring, and byte-identical analysis JSON across
// sweep parallelism (the PR 4/6 byte-identity contract extended to the
// analyzer).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep_runner.hpp"
#include "dl/workload_registry.hpp"
#include "profile_emit.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/profiler.hpp"

namespace composim::telemetry::analysis {
namespace {

// --- closed-form synthetic trace ---
//
// One iteration on [0, 10] with a fully known decomposition:
//
//   forward  [0,3] compute     backward [3,6] compute
//   gradient-sync [6,9] sync   optimizer [9,10] compute
//   allReduce op span [5,8] (corr 7) on the collectives track
//   one fabric flow [5,8] (corr 7), contended_s = 1.5 of actual 3.0
//
// compute = [0,6] u [9,10] = 7; comm active = [5,8]; overlap with
// compute = [5,6] = 1 (overlapped_comm); comm-only = [6,8] = 2, split
// 50/50 by the contended fraction (1.5/3.0) into exposed_comm = 1 and
// fabric_contention = 1; neither active = [8,9] = 1 (stall).
// Partition: 7 + 1 + 1 + 1 = 10 = wall, exactly.
void buildSyntheticTrace(Simulator& sim, Profiler& prof) {
  AsyncSpanId* flow = new AsyncSpanId(kInvalidAsyncSpan);
  const std::string trainer = "trainer/gpu0";
  const std::string coll = "collectives/gpu0 x2";
  sim.schedule(0.0, [&prof, trainer] {
    beginSpan(prof, trainer, "trainer", "iteration", {{"iter", 4}});
    beginSpan(prof, trainer, "trainer", "forward", {{"bucket", "compute"}});
  });
  sim.schedule(3.0, [&prof, trainer] {
    endSpan(prof, trainer);
    beginSpan(prof, trainer, "trainer", "backward", {{"bucket", "compute"}});
  });
  sim.schedule(5.0, [&prof, coll, flow] {
    beginSpan(prof, coll, "collective", "allReduce",
              {{"algorithm", "ring"}, {"corr", 7}});
    *flow = beginAsyncSpan(
        prof, "fabric", "nccl",
        {{"src", "gpu0"}, {"dst", "gpu1"}, {"bytes", 100}, {"corr", 7}});
  });
  sim.schedule(6.0, [&prof, trainer] {
    endSpan(prof, trainer);
    beginSpan(prof, trainer, "trainer", "gradient-sync", {{"bucket", "sync"}});
  });
  sim.schedule(8.0, [&prof, coll, flow] {
    prof.endAsyncSpan(*flow, {{"contended_s", 1.5}});
    endSpan(prof, coll);
    delete flow;
  });
  sim.schedule(9.0, [&prof, trainer] {
    endSpan(prof, trainer);
    beginSpan(prof, trainer, "trainer", "optimizer", {{"bucket", "compute"}});
  });
  sim.schedule(10.0, [&prof, trainer] {
    endSpan(prof, trainer);
    endSpan(prof, trainer);  // iteration
  });
}

TEST(Analysis, ClosedFormBucketsAndCriticalPath) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  buildSyntheticTrace(sim, prof);
  sim.run();
  prof.finalize();

  const RunAnalysis a = analyzeProfile(prof, "synthetic");
  ASSERT_EQ(a.iterations, 1u);
  const IterationAnalysis& it = a.per_iteration.front();
  EXPECT_EQ(it.iter, 4);
  EXPECT_DOUBLE_EQ(it.buckets.wall, 10.0);
  EXPECT_DOUBLE_EQ(it.buckets.compute, 7.0);
  EXPECT_DOUBLE_EQ(it.buckets.overlapped_comm, 1.0);
  EXPECT_DOUBLE_EQ(it.buckets.exposed_comm, 1.0);
  EXPECT_DOUBLE_EQ(it.buckets.fabric_contention, 1.0);
  EXPECT_DOUBLE_EQ(it.buckets.stall, 1.0);
  EXPECT_DOUBLE_EQ(it.buckets.partitionSum(), it.buckets.wall);
  EXPECT_DOUBLE_EQ(it.attribution_error_pct, 0.0);
  EXPECT_DOUBLE_EQ(it.coverage_pct, 100.0);
  EXPECT_LE(a.max_attribution_error_pct, kAttributionTolerancePct);

  // Critical path: the four phases in order, with the sync phase joined
  // through the op's correlation id down to the bounding flow.
  ASSERT_EQ(it.critical_path.size(), 4u);
  EXPECT_EQ(it.critical_path[0].name, "forward");
  EXPECT_EQ(it.critical_path[1].name, "backward");
  EXPECT_EQ(it.critical_path[2].name, "gradient-sync");
  EXPECT_EQ(it.critical_path[3].name, "optimizer");
  EXPECT_EQ(it.critical_path[2].bucket, "sync");
  EXPECT_EQ(it.critical_path[2].detail,
            "allReduce[ring] -> last flow gpu0->gpu1");

  // Span means include trainer phases, collective ops and flow tags.
  EXPECT_DOUBLE_EQ(a.span_mean_s.at("forward"), 3.0);
  EXPECT_DOUBLE_EQ(a.span_mean_s.at("gradient-sync"), 3.0);
  EXPECT_DOUBLE_EQ(a.span_mean_s.at("allReduce"), 3.0);
  EXPECT_DOUBLE_EQ(a.span_mean_s.at("flow:nccl"), 3.0);

  // The JSON export carries the schema tag and the same numbers.
  const falcon::Json doc = toJson(a);
  EXPECT_EQ(doc.at("schema").asString(), "composim.analysis/1");
  EXPECT_DOUBLE_EQ(doc.at("mean").at("compute_s").asDouble(), 7.0);
  // report() renders without throwing and names the run.
  EXPECT_NE(report(a).find("synthetic"), std::string::npos);
}

TEST(Analysis, LinkContentionReplaysCounterSeries) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  const std::string link = "link:gpu0->gpu1";
  // Need one iteration so the analysis is non-empty.
  buildSyntheticTrace(sim, prof);
  sim.schedule(0.0, [&] {
    setCounter(prof, link, "util_pct", 80.0);
    setCounter(prof, link, "flows", 1.0);
  });
  sim.schedule(2.0, [&] {
    setCounter(prof, link, "util_pct", 100.0);
    setCounter(prof, link, "flows", 2.0);
  });
  sim.schedule(6.0, [&] {
    setCounter(prof, link, "util_pct", 0.0);
    setCounter(prof, link, "flows", 0.0);
  });
  sim.run();
  prof.finalize();  // trace ends at t = 10

  const RunAnalysis a = analyzeProfile(prof, "links");
  ASSERT_EQ(a.links.size(), 1u);
  const LinkContention& lc = a.links.front();
  EXPECT_EQ(lc.link, link);
  // busy = 0.8 * 2s + 1.0 * 4s = 5.6; contention counts only the [2, 6)
  // window where 2 flows shared the link = 1.0 * 4s.
  EXPECT_DOUBLE_EQ(lc.busy_s, 5.6);
  EXPECT_DOUBLE_EQ(lc.contention_s, 4.0);
  // Time-weighted mean over [0, 10]: (160 + 400) / 10.
  EXPECT_DOUBLE_EQ(lc.util_mean_pct, 56.0);
}

TEST(Analysis, LinkUtilizationMeanStartsAtFirstPoint) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  const std::string link = "link:gpu1->gpu0";
  buildSyntheticTrace(sim, prof);
  sim.schedule(1.0, [&] { setCounter(prof, link, "util_pct", 80.0); });
  sim.schedule(3.0, [&] { setCounter(prof, link, "util_pct", 100.0); });
  sim.schedule(7.0, [&] { setCounter(prof, link, "util_pct", 0.0); });
  sim.run();
  prof.finalize();  // trace ends at t = 10

  const RunAnalysis a = analyzeProfile(prof, "late link");
  ASSERT_EQ(a.links.size(), 1u);
  const LinkContention& lc = a.links.front();
  EXPECT_DOUBLE_EQ(lc.busy_s, 5.6);
  EXPECT_DOUBLE_EQ(lc.contention_s, 0.0);
  // Over [1, 10], not [0, 10]: (80 * 2 + 100 * 4 + 0 * 3) / 9.
  EXPECT_DOUBLE_EQ(lc.util_mean_pct, 560.0 / 9.0);
}

TEST(Analysis, EmptyTraceYieldsEmptyAnalysis) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  sim.run();
  prof.finalize();
  const RunAnalysis a = analyzeProfile(prof, "empty");
  EXPECT_EQ(a.iterations, 0u);
  EXPECT_NE(report(a).find("no iteration spans"), std::string::npos);
}

// --- run-diff semantics ---

TEST(Analysis, DiffAttributesDeltaToBucketsAndSpans) {
  RunAnalysis base;
  base.name = "local";
  base.mean.wall = 1.0;
  base.mean.compute = 0.6;
  base.mean.exposed_comm = 0.3;
  base.mean.stall = 0.1;
  base.span_mean_s = {{"forward", 0.4}, {"gradient-sync", 0.3}};

  RunAnalysis other;
  other.name = "falcon";
  other.mean.wall = 1.4;
  other.mean.compute = 0.6;
  other.mean.exposed_comm = 0.65;
  other.mean.fabric_contention = 0.05;
  other.mean.stall = 0.1;
  other.span_mean_s = {{"forward", 0.4}, {"gradient-sync", 0.7}};

  const RunDiff d = diffRuns(base, other);
  EXPECT_EQ(d.base, "local");
  EXPECT_EQ(d.other, "falcon");
  EXPECT_DOUBLE_EQ(d.wall_delta_s, 0.4);
  EXPECT_EQ(d.dominant_bucket, "exposed_comm");
  ASSERT_FALSE(d.bucket_deltas.empty());
  EXPECT_EQ(d.bucket_deltas.front().first, "exposed_comm");
  EXPECT_DOUBLE_EQ(d.bucket_deltas.front().second, 0.35);
  // forward was unchanged, so only gradient-sync survives the filter.
  ASSERT_EQ(d.span_deltas.size(), 1u);
  EXPECT_EQ(d.span_deltas.front().first, "gradient-sync");
  EXPECT_DOUBLE_EQ(d.span_deltas.front().second, 0.4);

  const falcon::Json doc = toJson(d);
  EXPECT_EQ(doc.at("schema").asString(), "composim.analysis.diff/1");
  EXPECT_EQ(doc.at("dominant_bucket").asString(), "exposed_comm");
  EXPECT_NE(report(d).find("falcon vs local"), std::string::npos);
}

TEST(Analysis, DiffOfIdenticalRunsIsNone) {
  RunAnalysis a;
  a.name = "x";
  a.mean.wall = 1.0;
  a.mean.compute = 1.0;
  const RunDiff d = diffRuns(a, a);
  EXPECT_DOUBLE_EQ(d.wall_delta_s, 0.0);
  EXPECT_EQ(d.dominant_bucket, "none");
  EXPECT_TRUE(d.span_deltas.empty());
}

// --- experiment wiring + sweep byte-identity ---

core::ExperimentSpec tinySpec(const std::string& name) {
  core::ExperimentSpec s;
  s.name = name;
  s.workload = "MobileNetV2";
  s.config = name == "tiny-falcon" ? core::SystemConfig::FalconGpus
                                   : core::SystemConfig::LocalGpus;
  s.options.workload = s.workload;
  s.options.trainer.epochs = 1;
  s.options.trainer.max_iterations_per_epoch = 3;
  s.options.analysis = true;
  return s;
}

TEST(Analysis, ExperimentOptionProducesAnalysis) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 3;
  opt.analysis = true;  // implies trace
  const auto r = core::Experiment::run(core::SystemConfig::LocalGpus,
                                       dl::workload("MobileNetV2"), opt);
  ASSERT_NE(r.profiler, nullptr);
  ASSERT_NE(r.analysis, nullptr);
  EXPECT_EQ(r.analysis->iterations, 3u);
  EXPECT_LE(r.analysis->max_attribution_error_pct, kAttributionTolerancePct);
  EXPECT_GE(r.analysis->coverage_pct, 95.0);
  EXPECT_GT(r.analysis->mean.compute, 0.0);
  // Every critical path is non-empty and tiles most of its iteration.
  for (const IterationAnalysis& it : r.analysis->per_iteration) {
    EXPECT_FALSE(it.critical_path.empty());
    EXPECT_GE(it.coverage_pct, 95.0);
  }
}

TEST(Analysis, NoAnalysisOptionMeansNullAnalysis) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 2;
  opt.trace = true;
  const auto r = core::Experiment::run(core::SystemConfig::LocalGpus,
                                       dl::workload("MobileNetV2"), opt);
  EXPECT_EQ(r.analysis, nullptr);
}

std::vector<std::string> analysisDumps(int jobs) {
  core::SweepRunner runner({jobs});
  const auto runs =
      runner.run({tinySpec("tiny-local"), tinySpec("tiny-falcon")}, {});
  std::vector<std::string> dumps;
  for (const auto& run : runs) {
    EXPECT_TRUE(run.status.ok) << run.status.toString();
    if (run.result.analysis) {
      dumps.push_back(toJson(*run.result.analysis).dump(2));
    }
  }
  return dumps;
}

TEST(Analysis, ByteIdenticalAcrossSweepParallelism) {
  const std::vector<std::string> serial = analysisDumps(1);
  const std::vector<std::string> parallel = analysisDumps(4);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace composim::telemetry::analysis
