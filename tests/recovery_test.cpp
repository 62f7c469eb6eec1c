// Tests for the end-to-end failure-recovery stack: fault injection ->
// BMC health polling -> recovery orchestrator -> checkpoint-restore.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace composim::core {
namespace {

ExperimentOptions baseOptions() {
  ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 12;
  opt.trainer.checkpoint_every_iters = 4;
  return opt;
}

dl::ModelSpec testModel() {
  for (const auto& m : dl::WorkloadRegistry::instance().paperZoo()) {
    if (m.name == "ResNet-50") return m;
  }
  throw std::runtime_error("ResNet-50 missing from the zoo");
}

/// Simulated duration of the fault-free reference run (computed once);
/// fault times are placed at fractions of it so they always land while
/// training is live.
SimTime healthyDuration() {
  static const SimTime t = [] {
    const auto r = Experiment::run(SystemConfig::FalconGpus, testModel(),
                                   baseOptions());
    return r.training.simulated_time;
  }();
  return t;
}

TEST(RecoveryTest, SpareAttachKeepsGangWhole) {
  ExperimentOptions opt = baseOptions();
  opt.faults.enabled = true;
  opt.faults.spare_gpus = 1;
  opt.faults.health_poll_interval = 0.2;
  opt.faults.gpu_falloffs.push_back({1, 0.4 * healthyDuration()});
  const auto r = Experiment::run(SystemConfig::FalconGpus, testModel(), opt);

  EXPECT_TRUE(r.training.completed);
  EXPECT_GE(r.training.restores, 1);
  ASSERT_TRUE(r.recovery.enabled);
  EXPECT_EQ(r.recovery.final_gang_size, 8u);
  EXPECT_EQ(r.recovery.degradations, 0);
  ASSERT_EQ(r.recovery.incidents.size(), 1u);
  const auto& inc = r.recovery.incidents[0];
  EXPECT_EQ(inc.path, RecoveryIncident::Path::SpareAttach);
  EXPECT_TRUE(inc.resolved());
  EXPECT_GT(inc.mttr(), 0.0);
  EXPECT_GT(r.recovery.mean_mttr, 0.0);
}

TEST(RecoveryTest, NoSpareDegradesInsteadOfAborting) {
  ExperimentOptions opt = baseOptions();
  opt.faults.enabled = true;
  opt.faults.spare_gpus = 0;
  opt.faults.health_poll_interval = 0.2;
  opt.faults.gpu_falloffs.push_back({2, 0.4 * healthyDuration()});
  const auto r = Experiment::run(SystemConfig::FalconGpus, testModel(), opt);

  EXPECT_TRUE(r.training.completed);
  ASSERT_TRUE(r.recovery.enabled);
  EXPECT_EQ(r.recovery.final_gang_size, 7u);
  EXPECT_EQ(r.recovery.degradations, 1);
  ASSERT_EQ(r.recovery.incidents.size(), 1u);
  EXPECT_EQ(r.recovery.incidents[0].path, RecoveryIncident::Path::Degraded);
  EXPECT_TRUE(r.recovery.incidents[0].resolved());
  // The 12 capped iterations all ran, on the shrunken gang.
  EXPECT_EQ(r.training.iterations_run, 12);
}

TEST(RecoveryTest, SameSeedTwinRunsAreIdentical) {
  ExperimentOptions opt = baseOptions();
  opt.faults.enabled = true;
  opt.faults.seed = 42;
  opt.faults.spare_gpus = 2;
  opt.faults.health_poll_interval = 0.2;
  opt.faults.attach_failure_rate = 0.3;
  opt.faults.ecc_storms.push_back({0, 0.25 * healthyDuration(), 500});
  opt.faults.gpu_falloffs.push_back({3, 0.5 * healthyDuration()});
  const auto a = Experiment::run(SystemConfig::FalconGpus, testModel(), opt);
  const auto b = Experiment::run(SystemConfig::FalconGpus, testModel(), opt);

  EXPECT_TRUE(a.training.completed);
  EXPECT_EQ(a.training.iterations_run, b.training.iterations_run);
  EXPECT_EQ(a.training.simulated_time, b.training.simulated_time);
  EXPECT_EQ(a.training.lost_iterations, b.training.lost_iterations);
  EXPECT_EQ(a.training.restores, b.training.restores);
  EXPECT_EQ(a.recovery.faults_injected, b.recovery.faults_injected);
  EXPECT_EQ(a.recovery.detections, b.recovery.detections);
  EXPECT_EQ(a.recovery.reattach_retries, b.recovery.reattach_retries);
  EXPECT_EQ(a.recovery.mean_mttr, b.recovery.mean_mttr);
  ASSERT_EQ(a.recovery.fault_history.size(), b.recovery.fault_history.size());
  for (std::size_t i = 0; i < a.recovery.fault_history.size(); ++i) {
    EXPECT_EQ(a.recovery.fault_history[i].time,
              b.recovery.fault_history[i].time);
    EXPECT_EQ(a.recovery.fault_history[i].kind,
              b.recovery.fault_history[i].kind);
    EXPECT_EQ(a.recovery.fault_history[i].link,
              b.recovery.fault_history[i].link);
  }
  ASSERT_EQ(a.recovery.incidents.size(), b.recovery.incidents.size());
  for (std::size_t i = 0; i < a.recovery.incidents.size(); ++i) {
    EXPECT_EQ(a.recovery.incidents[i].mttr(), b.recovery.incidents[i].mttr());
    EXPECT_EQ(a.recovery.incidents[i].path, b.recovery.incidents[i].path);
  }
}

TEST(RecoveryTest, DetectionLatencyBoundedByPollInterval) {
  const SimTime poll = 0.2;
  const SimTime fault_at = 0.4 * healthyDuration();
  ExperimentOptions opt = baseOptions();
  opt.faults.enabled = true;
  opt.faults.spare_gpus = 1;
  opt.faults.health_poll_interval = poll;
  opt.faults.gpu_falloffs.push_back({1, fault_at});
  const auto r = Experiment::run(SystemConfig::FalconGpus, testModel(), opt);

  ASSERT_FALSE(r.recovery.detections_log.empty());
  const falcon::FaultEvent* lost = nullptr;
  for (const auto& ev : r.recovery.detections_log) {
    if (ev.type == falcon::FaultEventType::DeviceLost) {
      lost = &ev;
      break;
    }
  }
  ASSERT_NE(lost, nullptr);
  // Detection is not instantaneous (the monitor polls), but never later
  // than one full poll interval after the fault.
  EXPECT_GT(lost->time, fault_at);
  EXPECT_LE(lost->time, fault_at + poll + 1e-9);
}

TEST(RecoveryTest, LostStateBoundedByCheckpointReplayWindow) {
  ExperimentOptions opt = baseOptions();
  opt.faults.enabled = true;
  opt.faults.spare_gpus = 1;
  opt.faults.health_poll_interval = 0.2;
  opt.faults.gpu_falloffs.push_back({0, 0.6 * healthyDuration()});
  const auto r = Experiment::run(SystemConfig::FalconGpus, testModel(), opt);

  EXPECT_TRUE(r.training.completed);
  ASSERT_GE(r.training.restores, 1);
  EXPECT_LE(r.training.lost_iterations,
            r.training.restores * opt.trainer.checkpoint_every_iters);
  EXPECT_GT(r.training.restore_time, 0.0);
}

TEST(RecoveryTest, TransientAttachFailuresAreRetried) {
  ExperimentOptions opt = baseOptions();
  opt.faults.enabled = true;
  opt.faults.seed = 7;
  opt.faults.spare_gpus = 1;
  opt.faults.health_poll_interval = 0.2;
  opt.faults.attach_failure_rate = 0.9;
  opt.faults.gpu_falloffs.push_back({1, 0.4 * healthyDuration()});
  const auto r = Experiment::run(SystemConfig::FalconGpus, testModel(), opt);

  EXPECT_TRUE(r.training.completed);
  // At 90% transient-failure rate the first attempt essentially never
  // succeeds: retries must have happened, and the run must still finish —
  // via the spare if a retry landed, degraded if the budget ran out.
  EXPECT_GE(r.recovery.reattach_retries, 1u);
  ASSERT_EQ(r.recovery.incidents.size(), 1u);
  const auto& inc = r.recovery.incidents[0];
  EXPECT_TRUE(inc.resolved());
  EXPECT_TRUE(inc.path == RecoveryIncident::Path::SpareAttach ||
              inc.path == RecoveryIncident::Path::Degraded);
  EXPECT_EQ(r.recovery.final_gang_size,
            inc.path == RecoveryIncident::Path::SpareAttach ? 8u : 7u);
}

}  // namespace
}  // namespace composim::core
