// Snapshot/fork: a warmed experiment captured at the quiescent point and
// restored into a fresh stack must be indistinguishable — byte for byte,
// across every export surface — from the same run resumed in place. That
// equivalence is what lets SweepRunner execute a shared warm prefix once
// and fork each variant's tail without changing a single published number.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_config.hpp"
#include "core/sweep_runner.hpp"
#include "fabric/topology.hpp"
#include "sim/random.hpp"
#include "telemetry/run_tracker.hpp"

namespace composim {
namespace {

// --- Rng stream state (DESIGN.md §14: exact save/restore) ---

TEST(RngState, RoundTripReproducesDrawsBitForBit) {
  Rng rng(12345);
  for (int i = 0; i < 7; ++i) rng.next();  // advance into the stream
  const Rng::State st = rng.state();

  std::vector<double> first;
  for (int i = 0; i < 16; ++i) {
    first.push_back(rng.uniform());
    first.push_back(rng.normal(2.0, 0.5));
    first.push_back(static_cast<double>(rng.uniformInt(0, 1000)));
  }

  rng.setState(st);
  for (std::size_t i = 0; i < first.size(); i += 3) {
    EXPECT_EQ(first[i], rng.uniform());
    EXPECT_EQ(first[i + 1], rng.normal(2.0, 0.5));
    EXPECT_EQ(first[i + 2], static_cast<double>(rng.uniformInt(0, 1000)));
  }
}

TEST(RngState, PendingCachedNormalSurvivesRoundTrip) {
  Rng rng(7);
  rng.normal();  // Box-Muller leaves the second draw cached
  const Rng::State st = rng.state();
  EXPECT_TRUE(st.has_cached_normal);

  const double a = rng.normal();  // consumes the cache
  const double b = rng.normal();  // fresh pair
  rng.setState(st);
  EXPECT_EQ(a, rng.normal());
  EXPECT_EQ(b, rng.normal());
}

TEST(RngState, RestoreIntoDifferentInstanceMatches) {
  Rng donor(99);
  for (int i = 0; i < 5; ++i) donor.uniform();
  Rng fork(1);  // deliberately different seed
  fork.setState(donor.state());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(donor.next(), fork.next());
}

// --- Topology restore rebinds the routing owner (regression) ---

TEST(TopologyFork, RestoreStateRebindsRouteOwnerToRestoringThread) {
  auto build = [] {
    auto topo = std::make_unique<fabric::Topology>();
    const auto hub = topo->addNode("hub", fabric::NodeKind::PcieSwitch);
    for (int i = 0; i < 4; ++i) {
      const auto leaf =
          topo->addNode("l" + std::to_string(i), fabric::NodeKind::Gpu);
      topo->addDuplexLink(leaf, hub, units::GBps(16), 0.0,
                          fabric::LinkKind::PCIe4);
    }
    return topo;
  };

  auto donor = build();
  // Pin the donor's routing owner to this thread and warm its cache.
  ASSERT_TRUE(donor->route(fabric::NodeId{1}, fabric::NodeId{2}).has_value());
  const fabric::Topology::State st = donor->state();

  auto fork = build();
  // Pin the fork to this thread too — the worker below would be the
  // "wrong" thread if restoreState failed to rebind ownership.
  ASSERT_TRUE(fork->route(fabric::NodeId{1}, fabric::NodeId{2}).has_value());

  bool routed = false;
  std::thread worker([&] {
    fork->restoreState(st);  // must rebind the owner to this worker...
    const auto route = fork->route(fabric::NodeId{1}, fabric::NodeId{3});
    routed = route.has_value() && route->links.size() == 2;
  });
  worker.join();
  EXPECT_TRUE(routed);

  // ...and the handoff back is the caller's explicit responsibility.
  EXPECT_THROW(fork->route(fabric::NodeId{1}, fabric::NodeId{2}),
               std::logic_error);
  fork->rebindRouteOwner();
  EXPECT_TRUE(fork->route(fabric::NodeId{1}, fabric::NodeId{2}).has_value());
}

// --- Warm-prefix applicability and grouping key ---

core::ExperimentSpec specWith(int cap, int epochs, std::int64_t warm) {
  core::ExperimentSpec s;
  s.name = "spec-cap" + std::to_string(cap);
  s.workload = "ResNet-50";
  s.config = core::SystemConfig::FalconGpus;
  s.options.trainer.epochs = epochs;
  s.options.trainer.max_iterations_per_epoch = cap;
  s.options.warm_prefix = warm;
  return s;
}

TEST(WarmPrefix, ApplicabilityGuardsBoundaryCollisions) {
  EXPECT_TRUE(core::warmPrefixApplicable(specWith(12, 1, 4)));
  EXPECT_FALSE(core::warmPrefixApplicable(specWith(12, 1, 0)));   // off
  EXPECT_FALSE(core::warmPrefixApplicable(specWith(12, 1, 12)));  // epoch edge
  EXPECT_FALSE(core::warmPrefixApplicable(specWith(12, 1, 20)));  // past epoch

  // Fault schedules are fork-eligible; whether the schedule actually fits
  // the variant tail is a runtime check (WarmedExperiment ctor + the
  // SweepRunner's per-member faults_fit_tail test).
  auto faulted = specWith(12, 1, 4);
  faulted.options.faults.enabled = true;
  EXPECT_TRUE(core::warmPrefixApplicable(faulted));

  // ...but spares change the prefix topology, so they key the group.
  auto spared = specWith(12, 1, 4);
  spared.options.faults.enabled = true;
  spared.options.faults.spare_gpus = 1;
  EXPECT_NE(core::warmPrefixKey(faulted), core::warmPrefixKey(spared));

  auto ckpt = specWith(600, 1, 500);  // lands on checkpoint_every_iters
  EXPECT_FALSE(core::warmPrefixApplicable(ckpt));
}

TEST(WarmPrefix, KeyIgnoresTailParametersOnly) {
  const auto base = specWith(12, 1, 4);
  auto tail = specWith(9, 3, 4);
  tail.name = "other-name";
  EXPECT_EQ(core::warmPrefixKey(base), core::warmPrefixKey(tail));

  auto seeded = specWith(12, 1, 4);
  seeded.options.trainer.seed = 43;
  EXPECT_NE(core::warmPrefixKey(base), core::warmPrefixKey(seeded));

  auto traced = specWith(12, 1, 4);
  traced.options.trace = true;
  EXPECT_NE(core::warmPrefixKey(base), core::warmPrefixKey(traced));
}

// --- Fork vs cold: single experiment, every export surface ---

core::ExperimentOptions phasedOptions(int cap, int epochs) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = epochs;
  opt.trainer.max_iterations_per_epoch = cap;
  opt.warm_prefix = 4;
  opt.trace = true;
  // The analyzer replays the restored prefix's records together with the
  // tail's, so a fork must not change a single attribution number.
  opt.analysis = true;
  opt.metrics.alerts = {"gpu_util_pct > 101"};  // exercise alert state too
  return opt;
}

void expectResultsIdentical(const core::ExperimentResult& a,
                            const core::ExperimentResult& b) {
  EXPECT_EQ(a.training.mean_iteration_time, b.training.mean_iteration_time);
  EXPECT_EQ(a.training.simulated_time, b.training.simulated_time);
  EXPECT_EQ(a.training.samples_per_second, b.training.samples_per_second);
  EXPECT_EQ(a.training.checkpoint_time, b.training.checkpoint_time);
  EXPECT_EQ(a.training.checkpoint_bytes, b.training.checkpoint_bytes);
  EXPECT_EQ(a.gpu_util_pct, b.gpu_util_pct);
  EXPECT_EQ(a.cpu_util_pct, b.cpu_util_pct);
  EXPECT_EQ(a.host_mem_util_pct, b.host_mem_util_pct);
  EXPECT_EQ(a.falcon_pcie_gbs, b.falcon_pcie_gbs);
  // A fork replays the cold run's work exactly.
  EXPECT_EQ(a.work.events, b.work.events);
  EXPECT_EQ(a.work.flows, b.work.flows);
  EXPECT_EQ(a.work.recomputes, b.work.recomputes);
  EXPECT_EQ(a.work.solves, b.work.solves);
  EXPECT_EQ(a.work.kernels, b.work.kernels);
  EXPECT_EQ(a.work.collective_ops, b.work.collective_ops);
  EXPECT_EQ(a.work.profiler_records, b.work.profiler_records);
  ASSERT_EQ(a.training.loss_curve.size(), b.training.loss_curve.size());
  for (std::size_t i = 0; i < a.training.loss_curve.size(); ++i) {
    EXPECT_EQ(a.training.loss_curve[i], b.training.loss_curve[i]);
  }
  // Export surfaces, byte for byte.
  EXPECT_EQ(a.metrics->prometheusText(), b.metrics->prometheusText());
  EXPECT_EQ(a.metrics->jsonlDump(), b.metrics->jsonlDump());
  ASSERT_EQ(a.profiler != nullptr, b.profiler != nullptr);
  if (a.profiler) {
    EXPECT_EQ(a.profiler->chromeTrace().dump(2),
              b.profiler->chromeTrace().dump(2));
  }
  ASSERT_EQ(a.analysis != nullptr, b.analysis != nullptr);
  if (a.analysis) {
    EXPECT_EQ(telemetry::analysis::toJson(*a.analysis).dump(2),
              telemetry::analysis::toJson(*b.analysis).dump(2));
  }
}

TEST(SnapshotFork, ForkedTailIsByteIdenticalToColdPhasedRun) {
  const auto model = dl::workload("ResNet-50");
  const auto opt = phasedOptions(10, 1);

  core::WarmedExperiment cold(core::SystemConfig::FalconGpus, model, opt);
  const core::ExperimentResult cold_result = cold.finish();

  core::WarmedExperiment donor(core::SystemConfig::FalconGpus, model, opt);
  const core::SimSnapshot snap = donor.snapshot();
  const core::ExperimentResult forked = core::WarmedExperiment::resumeFromSnapshot(
      core::SystemConfig::FalconGpus, model, opt, snap);

  expectResultsIdentical(cold_result, forked);
}

TEST(SnapshotFork, SnapshotIsReusableAndDeterministic) {
  const auto model = dl::workload("ResNet-50");
  const auto opt = phasedOptions(8, 1);
  core::WarmedExperiment donor(core::SystemConfig::FalconGpus, model, opt);
  const core::SimSnapshot snap = donor.snapshot();

  // Same snapshot, two forks: identical. Different tail: still restores.
  const auto a = core::WarmedExperiment::resumeFromSnapshot(
      core::SystemConfig::FalconGpus, model, opt, snap);
  const auto b = core::WarmedExperiment::resumeFromSnapshot(
      core::SystemConfig::FalconGpus, model, opt, snap);
  expectResultsIdentical(a, b);

  auto longer = opt;
  longer.trainer.max_iterations_per_epoch = 12;
  const auto c = core::WarmedExperiment::resumeFromSnapshot(
      core::SystemConfig::FalconGpus, model, longer, snap);
  EXPECT_GT(c.training.simulated_time, a.training.simulated_time);

  // The donor itself can still finish after snapshotting.
  const auto donor_result = donor.finish();
  expectResultsIdentical(a, donor_result);
}

TEST(SnapshotFork, ForkedVariantMatchesWholeColdVariant) {
  // A variant whose tail length differs from the donor's: forking from
  // the shared prefix must equal running that variant phased end-to-end.
  const auto model = dl::workload("ResNet-50");
  const auto donor_opt = phasedOptions(8, 1);
  auto variant_opt = donor_opt;
  variant_opt.trainer.max_iterations_per_epoch = 14;

  core::WarmedExperiment donor(core::SystemConfig::FalconGpus, model,
                               donor_opt);
  const auto forked = core::WarmedExperiment::resumeFromSnapshot(
      core::SystemConfig::FalconGpus, model, variant_opt, donor.snapshot());

  core::WarmedExperiment cold(core::SystemConfig::FalconGpus, model,
                              variant_opt);
  expectResultsIdentical(cold.finish(), forked);
}

TEST(SnapshotFork, ColdPhasedRestoreBelowBoundaryCompletes) {
  // A GPU falls off after the warm-prefix boundary (iteration 150, about
  // t = 19.4 s) and the recovery rewinds to a checkpoint below it. The
  // tail re-crosses iteration 150, which must not pause the run again:
  // the cold phased path (runExperimentSpec -> WarmedExperiment::finish)
  // used to stall there until the watchdog tripped.
  core::ExperimentSpec spec = specWith(200, 1, 150);
  spec.options.faults.enabled = true;
  spec.options.faults.spare_gpus = 1;
  spec.options.faults.gpu_falloffs.push_back({0, 22.0});
  spec.options.watchdog = 400.0;

  const core::ExperimentResult cold = core::runExperimentSpec(spec);
  EXPECT_TRUE(cold.training.completed);
  EXPECT_EQ(cold.training.iterations_run, 200);
  EXPECT_EQ(cold.training.restores, 1);

  core::WarmedExperiment donor(spec.config, dl::workload(spec.workload),
                               spec.options);
  const core::ExperimentResult forked =
      core::WarmedExperiment::resumeFromSnapshot(
          spec.config, dl::workload(spec.workload), spec.options,
          donor.snapshot());
  EXPECT_EQ(cold.training.iterations_run, forked.training.iterations_run);
  EXPECT_EQ(cold.training.restores, forked.training.restores);
  EXPECT_EQ(cold.training.lost_iterations, forked.training.lost_iterations);
  EXPECT_EQ(cold.training.extrapolated_total_time,
            forked.training.extrapolated_total_time);
  expectResultsIdentical(cold, forked);
}

// --- Twin-run sweeps: fork vs cold across the full artifact set ---

struct SweepArtifacts {
  std::string manifest;
  std::vector<std::string> traces;
  std::vector<std::string> prometheus;
  std::vector<std::string> jsonl;
  bool all_ok = true;
};

std::vector<core::ExperimentSpec> twinSuite() {
  // Eight variants of one warmed prefix: tail length is the only axis, so
  // with sharing on the prefix runs once and forks eight ways.
  std::vector<core::ExperimentSpec> specs;
  for (int i = 0; i < 8; ++i) {
    core::ExperimentSpec s;
    s.name = "twin-" + std::to_string(i);
    s.workload = "ResNet-50";
    s.config = core::SystemConfig::FalconGpus;
    s.options.trainer.epochs = 1;
    s.options.trainer.max_iterations_per_epoch = 8 + i;
    s.options.warm_prefix = 4;
    s.options.trace = true;
    specs.push_back(std::move(s));
  }
  return specs;
}

SweepArtifacts runTwin(int jobs, bool share) {
  SweepArtifacts art;
  core::SweepOptions opts;
  opts.jobs = jobs;
  opts.share_warm_prefixes = share;
  core::SweepRunner runner(opts);
  telemetry::RunTracker tracker;
  runner.run(twinSuite(), [&](const core::SweepRun& done) {
    if (!done.status) {
      art.all_ok = false;
      return;
    }
    auto& run = tracker.run(done.spec.name);
    run.setConfig("benchmark", done.spec.workload);
    run.setSummary("mean_iteration_s", done.result.training.mean_iteration_time);
    run.setSummary("gpu_util_pct", done.result.gpu_util_pct);
    art.traces.push_back(done.result.profiler->chromeTrace().dump(2));
    art.prometheus.push_back(done.result.metrics->prometheusText());
    art.jsonl.push_back(done.result.metrics->jsonlDump());
  });
  art.manifest = tracker.manifest().dump(2);
  return art;
}

void expectArtifactsIdentical(const SweepArtifacts& a, const SweepArtifacts& b) {
  EXPECT_TRUE(a.all_ok);
  EXPECT_TRUE(b.all_ok);
  EXPECT_EQ(a.manifest, b.manifest);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i], b.traces[i]) << "trace " << i;
  }
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.jsonl, b.jsonl);
}

TEST(SnapshotForkSweep, ForkedSweepMatchesColdSweepSerially) {
  const auto cold = runTwin(1, /*share=*/false);
  const auto fork = runTwin(1, /*share=*/true);
  ASSERT_EQ(cold.traces.size(), 8u);
  expectArtifactsIdentical(cold, fork);
}

TEST(SnapshotForkSweep, ForkedSweepMatchesColdSweepAtJobs4) {
  // Phase B restores snapshots on worker threads: the route-owner rebind,
  // ID-allocator restore and registry copy all run off the main thread.
  const auto cold = runTwin(1, /*share=*/false);
  const auto fork4 = runTwin(4, /*share=*/true);
  expectArtifactsIdentical(cold, fork4);
  const auto cold4 = runTwin(4, /*share=*/false);
  expectArtifactsIdentical(cold, cold4);
}

}  // namespace
}  // namespace composim
