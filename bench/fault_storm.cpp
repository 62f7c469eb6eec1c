// composim bench: BERT-L DDP on falconGPUs under a seeded fault storm.
//
// Exercises the end-to-end recovery path: BMC-surfaced device faults ->
// health-monitor detection -> recovery orchestrator (spare attach with
// retry, graceful degradation, host-port wait) -> checkpoint-restore and
// iteration replay. Reports MTTR, goodput retention vs a fault-free
// baseline, and a recovery-path breakdown to BENCH_recovery.json.
//
// The run doubles as an acceptance gate (exit nonzero on violation):
//   (a) no lost state beyond the checkpoint replay window
//       (lost_iterations <= restores * checkpoint_every_iters),
//   (b) goodput retention and MTTR are reported,
//   (c) two same-seed storm runs produce bit-identical results,
//   (d) with zero spares the run finishes degraded instead of aborting.
//
//   $ ./bench/fault_storm [BENCH_recovery.json]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "telemetry/report.hpp"

using namespace composim;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

core::ExperimentOptions stormOptions() {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 30;
  // Small replay window so several checkpoints land inside the capped run
  // and the "lost state" bound is tight.
  opt.trainer.checkpoint_every_iters = 8;
  return opt;
}

/// Goodput: useful (committed) iterations per simulated second. Replayed
/// iterations are not useful work, so the storm run's goodput drops by
/// exactly the recovery overhead.
double goodput(const core::ExperimentResult& r) {
  if (r.training.simulated_time <= 0.0) return 0.0;
  return static_cast<double>(r.training.iterations_run) /
         r.training.simulated_time;
}

/// Detection latency: join the monitor's detection log against the
/// injector's fault history (latest injected record at or before each
/// detection). Mean over all detections.
double meanDetectionLatency(const core::RecoverySummary& rec) {
  if (rec.detections_log.empty()) return 0.0;
  double total = 0.0;
  int joined = 0;
  for (const auto& ev : rec.detections_log) {
    const fabric::FaultRecord* latest = nullptr;
    for (const auto& f : rec.fault_history) {
      if (f.time <= ev.time && (!latest || f.time > latest->time)) latest = &f;
    }
    if (latest) {
      total += ev.time - latest->time;
      ++joined;
    }
  }
  return joined ? total / joined : 0.0;
}

bool identicalRuns(const core::ExperimentResult& a,
                   const core::ExperimentResult& b) {
  if (a.training.iterations_run != b.training.iterations_run) return false;
  if (a.training.simulated_time != b.training.simulated_time) return false;
  if (a.training.lost_iterations != b.training.lost_iterations) return false;
  if (a.training.restores != b.training.restores) return false;
  if (a.recovery.faults_injected != b.recovery.faults_injected) return false;
  if (a.recovery.detections != b.recovery.detections) return false;
  if (a.recovery.reattach_retries != b.recovery.reattach_retries) return false;
  if (a.recovery.mean_mttr != b.recovery.mean_mttr) return false;
  if (a.recovery.fault_history.size() != b.recovery.fault_history.size())
    return false;
  for (std::size_t i = 0; i < a.recovery.fault_history.size(); ++i) {
    const auto& fa = a.recovery.fault_history[i];
    const auto& fb = b.recovery.fault_history[i];
    if (fa.time != fb.time || fa.kind != fb.kind || fa.link != fb.link)
      return false;
  }
  if (a.recovery.incidents.size() != b.recovery.incidents.size()) return false;
  for (std::size_t i = 0; i < a.recovery.incidents.size(); ++i) {
    if (a.recovery.incidents[i].mttr() != b.recovery.incidents[i].mttr())
      return false;
  }
  return true;
}

falcon::Json summarize(const core::ExperimentResult& r) {
  auto j = falcon::Json::object();
  j.set("completed", r.training.completed);
  j.set("iterations_run", static_cast<std::int64_t>(r.training.iterations_run));
  j.set("simulated_time_s", r.training.simulated_time);
  j.set("mean_iteration_s", r.training.mean_iteration_time);
  j.set("goodput_iters_per_s", goodput(r));
  j.set("restores", static_cast<std::int64_t>(r.training.restores));
  j.set("lost_iterations",
        static_cast<std::int64_t>(r.training.lost_iterations));
  j.set("restore_time_s", r.training.restore_time);
  if (r.recovery.enabled) {
    j.set("faults_injected",
          static_cast<std::int64_t>(r.recovery.faults_injected));
    j.set("detections", static_cast<std::int64_t>(r.recovery.detections));
    j.set("reattach_retries",
          static_cast<std::int64_t>(r.recovery.reattach_retries));
    j.set("degradations", static_cast<std::int64_t>(r.recovery.degradations));
    j.set("final_gang_size",
          static_cast<std::int64_t>(r.recovery.final_gang_size));
    j.set("mean_mttr_s", r.recovery.mean_mttr);
    j.set("mean_detection_latency_s", meanDetectionLatency(r.recovery));
    auto incidents = falcon::Json::array();
    for (const auto& inc : r.recovery.incidents) {
      auto o = falcon::Json::object();
      o.set("fault", falcon::toString(inc.fault.type));
      o.set("device", inc.fault.device_name);
      o.set("path", core::toString(inc.path));
      o.set("detected_at_s", inc.detected_at);
      o.set("recovered_at_s", inc.recovered_at);
      o.set("mttr_s", inc.mttr());
      o.set("attach_retries", static_cast<std::int64_t>(inc.attach_retries));
      incidents.push(std::move(o));
    }
    j.set("incidents", std::move(incidents));
    auto history = falcon::Json::array();
    for (const auto& f : r.recovery.fault_history) {
      auto o = falcon::Json::object();
      o.set("t_s", f.time);
      o.set("kind", fabric::toString(f.kind));
      o.set("link", static_cast<std::int64_t>(f.link));
      history.push(std::move(o));
    }
    j.set("fault_history", std::move(history));
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("fault storm", "BERT-L DDP recovery under injected faults");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_recovery.json";

  dl::ModelSpec model;
  for (const auto& m : dl::WorkloadRegistry::instance().paperZoo()) {
    if (m.name == "BERT-L") model = m;
  }

  // --- Fault-free baseline: the goodput reference and the clock used to
  // place the storm's faults at fixed fractions of the healthy run.
  std::printf("baseline (fault-free falconGPUs)...\n");
  const auto baseline =
      core::Experiment::run(core::SystemConfig::FalconGpus, model,
                            stormOptions());
  const SimTime t_end = baseline.training.simulated_time;
  std::printf("  %lld iterations in %s (goodput %.2f iters/s)\n\n",
              static_cast<long long>(baseline.training.iterations_run),
              formatTime(t_end).c_str(), goodput(baseline));

  // --- The storm: an ECC error storm (proactive spare swap), two GPU
  // fall-off-the-bus faults, and a host-port flap, with transiently
  // failing re-attaches. Three spares cover the three device losses.
  core::ExperimentOptions storm_opt = stormOptions();
  storm_opt.faults.enabled = true;
  storm_opt.faults.seed = 99;
  storm_opt.faults.health_poll_interval = 0.25;
  storm_opt.faults.spare_gpus = 3;
  storm_opt.faults.attach_failure_rate = 0.3;
  storm_opt.faults.ecc_storms.push_back({1, 0.20 * t_end, 500});
  storm_opt.faults.gpu_falloffs.push_back({2, 0.35 * t_end});
  storm_opt.faults.gpu_falloffs.push_back({5, 0.55 * t_end});
  storm_opt.faults.host_port_flaps.push_back({0, 0.75 * t_end, 1.0});

  std::printf("storm run 1...\n");
  const auto storm =
      core::Experiment::run(core::SystemConfig::FalconGpus, model, storm_opt);
  std::printf("storm run 2 (same seed)...\n");
  const auto storm2 =
      core::Experiment::run(core::SystemConfig::FalconGpus, model, storm_opt);

  // --- No-spare scenario: one permanent GPU loss with nothing to attach;
  // the gang must shrink and training must still finish.
  core::ExperimentOptions degraded_opt = stormOptions();
  degraded_opt.faults.enabled = true;
  degraded_opt.faults.seed = 99;
  degraded_opt.faults.health_poll_interval = 0.25;
  degraded_opt.faults.spare_gpus = 0;
  degraded_opt.faults.gpu_falloffs.push_back({3, 0.30 * t_end});
  std::printf("no-spare degradation run...\n\n");
  const auto degraded =
      core::Experiment::run(core::SystemConfig::FalconGpus, model,
                            degraded_opt);

  const double retention = goodput(baseline) > 0.0
                               ? goodput(storm) / goodput(baseline)
                               : 0.0;

  telemetry::Table t({"Run", "iters", "sim time", "goodput it/s", "restores",
                      "lost iters", "MTTR", "gang"});
  auto row = [&](const char* name, const core::ExperimentResult& r) {
    t.addRow({name, std::to_string(r.training.iterations_run),
              formatTime(r.training.simulated_time),
              telemetry::fmt(goodput(r), 2),
              std::to_string(r.training.restores),
              std::to_string(r.training.lost_iterations),
              r.recovery.enabled ? formatTime(r.recovery.mean_mttr) : "-",
              r.recovery.enabled ? std::to_string(r.recovery.final_gang_size)
                                 : "8"});
  };
  row("baseline", baseline);
  row("storm", storm);
  row("no-spare", degraded);
  std::printf("%s\n", t.render().c_str());
  std::printf("goodput retention under storm : %.1f %%\n", 100.0 * retention);
  std::printf("mean detection latency        : %s\n",
              formatTime(meanDetectionLatency(storm.recovery)).c_str());
  std::printf("recovery paths taken          :");
  for (const auto& inc : storm.recovery.incidents) {
    std::printf(" %s", core::toString(inc.path));
  }
  std::printf("\n\n");

  // --- Acceptance gates.
  check(storm.training.completed, "storm run completes training");
  check(storm.training.restores >= 1, "storm run exercised checkpoint-restore");
  check(storm.recovery.faults_injected >= 4, "all scheduled faults injected");
  check(storm.recovery.detections >= storm.recovery.incidents.size(),
        "health monitor detected the incidents");
  bool all_resolved = !storm.recovery.incidents.empty();
  for (const auto& inc : storm.recovery.incidents) {
    if (!inc.resolved()) all_resolved = false;
  }
  check(all_resolved, "every incident resolved (MTTR defined)");
  check(storm.recovery.mean_mttr > 0.0, "mean MTTR is positive");
  check(storm.training.lost_iterations <=
            storm.training.restores * storm_opt.trainer.checkpoint_every_iters,
        "lost state bounded by the checkpoint replay window");
  check(identicalRuns(storm, storm2),
        "same-seed storm runs are bit-identical (deterministic)");
  check(degraded.training.completed,
        "no-spare run finishes instead of aborting");
  check(degraded.recovery.final_gang_size < 8 &&
            degraded.recovery.degradations >= 1,
        "no-spare run degraded the gang");
  check(retention > 0.0 && retention <= 1.0 + 1e-9,
        "goodput retention is a sane fraction");

  auto doc = falcon::Json::object();
  doc.set("bench", "fault_storm");
  doc.set("benchmark", model.name);
  doc.set("config", "falconGPUs");
  doc.set("goodput_retention", retention);
  doc.set("deterministic", identicalRuns(storm, storm2));
  doc.set("baseline", summarize(baseline));
  doc.set("storm", summarize(storm));
  doc.set("no_spare", summarize(degraded));
  std::ofstream out(out_path);
  out << doc.dump(2) << "\n";
  const bool wrote = out.good();
  out.close();
  check(wrote, "BENCH_recovery.json written");
  std::printf("\nreport written to %s\n", out_path.c_str());

  if (g_failures) {
    std::printf("\n%d acceptance check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall acceptance checks passed\n");
  return 0;
}
