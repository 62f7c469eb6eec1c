// Parallel sweep engine: serial and parallel replays of the same suite
// must be byte-identical (RunTracker JSON and Chrome trace exports), the
// pool must run --jobs tasks at once and handle degenerate job counts,
// and a throwing spec must surface as a Status without sinking its
// siblings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/sweep_runner.hpp"
#include "telemetry/run_tracker.hpp"

namespace composim {
namespace {

core::ExperimentSpec makeSpec(const std::string& name,
                              const std::string& benchmark,
                              core::SystemConfig config, bool trace = false) {
  core::ExperimentSpec s;
  s.name = name;
  s.workload = benchmark;
  s.config = config;
  s.options.trainer.epochs = 1;
  s.options.trainer.max_iterations_per_epoch = 6;
  s.options.trace = trace;
  return s;
}

std::vector<core::ExperimentSpec> eightSpecSuite(bool trace = false) {
  std::vector<core::ExperimentSpec> specs;
  const char* benchmarks[] = {"ResNet-50", "MobileNetV2"};
  const core::SystemConfig configs[] = {core::SystemConfig::LocalGpus,
                                        core::SystemConfig::FalconGpus,
                                        core::SystemConfig::HybridGpus,
                                        core::SystemConfig::LocalNvme};
  for (int i = 0; i < 8; ++i) {
    specs.push_back(makeSpec("suite-" + std::to_string(i), benchmarks[i % 2],
                             configs[i % 4], trace));
  }
  return specs;
}

/// The aggregation run_suite does, reduced to a comparable JSON string.
std::string trackerJson(const std::vector<core::SweepRun>& outcomes) {
  telemetry::RunTracker tracker;
  for (const auto& done : outcomes) {
    if (!done.status) continue;
    auto& run = tracker.run(done.spec.name);
    run.setConfig("benchmark", done.spec.workload);
    run.setConfig("config", core::toString(done.spec.config));
    run.setSummary("mean_iteration_s", done.result.training.mean_iteration_time);
    run.setSummary("samples_per_second", done.result.training.samples_per_second);
    run.setSummary("gpu_util_pct", done.result.gpu_util_pct);
    const auto& util = done.result.metrics->series("gpu_util_pct");
    for (std::size_t i = 0; i < util.size(); ++i) {
      run.log("gpu_util_pct", util.timeAt(i), util.valueAt(i));
    }
  }
  return tracker.manifest().dump(2);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SweepRunner, SerialAndParallelAreByteIdentical) {
  core::SweepRunner serial({1});
  core::SweepRunner parallel({4});
  const auto a = serial.run(eightSpecSuite());
  const auto b = parallel.run(eightSpecSuite());

  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(b.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].status.ok);
    EXPECT_TRUE(b[i].status.ok);
    EXPECT_EQ(a[i].spec.name, b[i].spec.name) << "submission order broken";
    EXPECT_EQ(a[i].result.training.mean_iteration_time,
              b[i].result.training.mean_iteration_time);
    EXPECT_EQ(a[i].result.training.simulated_time,
              b[i].result.training.simulated_time);
    EXPECT_EQ(a[i].result.gpu_util_pct, b[i].result.gpu_util_pct);
    EXPECT_EQ(a[i].result.falcon_pcie_gbs, b[i].result.falcon_pcie_gbs);
  }
  EXPECT_EQ(trackerJson(a), trackerJson(b));
}

TEST(SweepRunner, TraceExportsAreByteIdentical) {
  // Two traced specs are enough to compare exports without slowing the
  // suite; the sweep bench covers the full 8-spec version.
  std::vector<core::ExperimentSpec> specs = {
      makeSpec("t0", "ResNet-50", core::SystemConfig::FalconGpus, true),
      makeSpec("t1", "MobileNetV2", core::SystemConfig::LocalGpus, true)};
  const auto a = core::SweepRunner({1}).run(specs);
  const auto b = core::SweepRunner({4}).run(specs);

  const std::string dir = ::testing::TempDir();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(a[i].status.ok);
    ASSERT_TRUE(b[i].status.ok);
    ASSERT_NE(a[i].result.profiler, nullptr);
    ASSERT_NE(b[i].result.profiler, nullptr);
    const std::string pa = dir + "/serial_" + specs[i].name + ".json";
    const std::string pb = dir + "/parallel_" + specs[i].name + ".json";
    ASSERT_TRUE(a[i].result.profiler->writeChromeTrace(pa).ok);
    ASSERT_TRUE(b[i].result.profiler->writeChromeTrace(pb).ok);
    const std::string ta = slurp(pa);
    EXPECT_FALSE(ta.empty());
    EXPECT_EQ(ta, slurp(pb));
  }
}

TEST(SweepRunner, MoreJobsThanSpecs) {
  std::vector<core::ExperimentSpec> specs = {
      makeSpec("a", "MobileNetV2", core::SystemConfig::LocalGpus),
      makeSpec("b", "MobileNetV2", core::SystemConfig::FalconGpus),
      makeSpec("c", "MobileNetV2", core::SystemConfig::HybridGpus)};
  const auto out = core::SweepRunner({16}).run(specs);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].spec.name, "a");
  EXPECT_EQ(out[1].spec.name, "b");
  EXPECT_EQ(out[2].spec.name, "c");
  for (const auto& o : out) EXPECT_TRUE(o.status.ok);
}

TEST(SweepRunner, SingleJobRunsInline) {
  // jobs = 1 must not spawn threads: the whole suite runs on this thread.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  core::SweepRunner runner({1});
  auto out = runner.run(
      {makeSpec("a", "MobileNetV2", core::SystemConfig::LocalGpus),
       makeSpec("b", "MobileNetV2", core::SystemConfig::LocalGpus)},
      [&](const core::SweepRun&) { seen.push_back(std::this_thread::get_id()); });
  EXPECT_EQ(runner.jobs(), 1);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(seen.size(), 2u);
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(SweepRunner, ThrowingSpecSurfacesAndSiblingsFinish) {
  std::vector<core::ExperimentSpec> specs = {
      makeSpec("ok-0", "MobileNetV2", core::SystemConfig::LocalGpus),
      makeSpec("boom", "NoSuchNet-9000", core::SystemConfig::LocalGpus),
      makeSpec("ok-1", "ResNet-50", core::SystemConfig::FalconGpus)};
  std::vector<std::string> ready_order;
  const auto out = core::SweepRunner({4}).run(
      specs,
      [&](const core::SweepRun& r) { ready_order.push_back(r.spec.name); });

  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].status.ok);
  EXPECT_FALSE(out[1].status.ok);
  EXPECT_NE(out[1].status.toString().find("NoSuchNet-9000"), std::string::npos);
  EXPECT_TRUE(out[2].status.ok);
  EXPECT_TRUE(out[0].result.training.completed);
  EXPECT_TRUE(out[2].result.training.completed);
  // The failed run still occupies its submission-order slot.
  const std::vector<std::string> want = {"ok-0", "boom", "ok-1"};
  EXPECT_EQ(ready_order, want);
}

TEST(SweepRunner, OnReadyStreamsInSubmissionOrder) {
  const auto specs = eightSpecSuite();
  std::vector<std::string> order;
  core::SweepRunner({4}).run(specs, [&](const core::SweepRun& r) {
    order.push_back(r.spec.name);
  });
  ASSERT_EQ(order.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(order[i], specs[i].name);
  }
}

TEST(WorkStealingPool, ResolveJobs) {
  EXPECT_GE(core::WorkStealingPool::resolveJobs(0), 1);
  EXPECT_EQ(core::WorkStealingPool::resolveJobs(3), 3);
  EXPECT_GE(core::WorkStealingPool::resolveJobs(-5), 1);
}

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce) {
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> counts(kTasks);
  std::vector<core::WorkStealingPool::Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks.push_back([&counts, i] { counts[i].fetch_add(1); });
  }
  std::size_t emitted = 0;
  core::WorkStealingPool::runAll(std::move(tasks), 4, [&](std::size_t i) {
    EXPECT_EQ(i, emitted);  // in-order streaming
    ++emitted;
  });
  EXPECT_EQ(emitted, kTasks);
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(WorkStealingPool, RunsJobsTasksAtOnce) {
  // Four tasks meet at a latch: each waits until all four have arrived.
  // The wait is bounded, so a pool that runs tasks one at a time sees one
  // in flight and fails here instead of hanging.
  constexpr int kJobs = 4;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int in_flight = 0;
  int max_in_flight = 0;
  std::vector<core::WorkStealingPool::Task> tasks;
  for (int i = 0; i < kJobs; ++i) {
    tasks.push_back([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      max_in_flight = std::max(max_in_flight, ++in_flight);
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(5),
                  [&] { return arrived == kJobs; });
      --in_flight;
    });
  }
  core::WorkStealingPool::runAll(std::move(tasks), kJobs);
  EXPECT_EQ(max_in_flight, kJobs);
}

TEST(WorkStealingPool, EmptyBatchIsANoop) {
  core::WorkStealingPool::runAll({}, 4,
                                 [](std::size_t) { FAIL() << "no tasks"; });
}

TEST(SweepOrdered, CollectsResultsInSubmissionOrder) {
  const auto out = core::sweepOrdered(4, 16, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

}  // namespace
}  // namespace composim
