// composim bench: capture side of the metrics-pipeline smoke test.
//
// Runs an instrumented ResNet-50 experiment on falconGPUs with an ECC
// error storm scheduled mid-run and SLO alert rules attached, then writes
// the pipeline's two exports — Prometheus text exposition and the JSONL
// time-series dump — to the paths given as argv[1]/argv[2], plus a
// BENCH_metrics.json summary to argv[3]. The metrics ctest runs
// bench_json_validate over the two exports: capture here, structural
// checks there.
//
// The run doubles as an acceptance gate (exit nonzero on violation):
//   (a) the ECC storm raises a firing `ecc_errors_total rate > 0` alert
//       within one scrape + one BMC poll of the injection, and the alert
//       resolves once the storm passes,
//   (b) the traced run's last faults_injected/count 'C' record is > 0 and
//       equals the injector's count (result.recovery.faults_injected),
//   (c) serial and 4-way parallel replays of a 4-experiment matrix
//       produce byte-identical Prometheus and JSONL exports.
//
//   $ ./bench/metrics_capture out.prom out.jsonl BENCH_metrics.json
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "falcon/bmc.hpp"
#include "telemetry/profiler.hpp"

using namespace composim;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

core::ExperimentOptions shortRun() {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 20;
  opt.trainer.checkpoint_every_iters = 8;  // exercise the checkpoint histogram
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("metrics pipeline",
                "ResNet-50 on falconGPUs, scraped + alerting under ECC storm");
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: metrics_capture <out.prom> <out.jsonl> <out.json>\n");
    return 1;
  }

  const dl::ModelSpec model = dl::workload("ResNet-50");

  // --- Fault-free baseline clocks the run so the storm lands mid-flight.
  std::printf("baseline (fault-free falconGPUs)...\n");
  const auto baseline =
      core::Experiment::run(core::SystemConfig::FalconGpus, model, shortRun());
  const SimTime t_end = baseline.training.simulated_time;
  const SimTime t_storm = 0.4 * t_end;
  std::printf("  %lld iterations in %s; storm scheduled at %s\n\n",
              static_cast<long long>(baseline.training.iterations_run),
              formatTime(t_end).c_str(), formatTime(t_storm).c_str());

  // --- Instrumented storm run: ECC storm, SLO rules, trace. Proactive
  // spare swap is off so the storm stays a telemetry event — a quarantine
  // would free the slot and take the error counter with it (the recovery
  // bench covers that path); here the exposition must show the burst.
  core::ExperimentOptions opt = shortRun();
  opt.trace = true;
  opt.metrics.scrape_interval = 0.25;
  opt.metrics.alerts = {
      "ecc-storm: ecc_errors_total rate > 0",
      "idle-gpu: gpu_util_pct < 10 for 5s",
      "hot-link: link_util_pct > 95 for 2s",
  };
  opt.faults.enabled = true;
  opt.faults.seed = 99;
  opt.faults.health_poll_interval = 0.1;
  opt.faults.policy.proactive_on_error_storm = false;
  opt.faults.ecc_storms.push_back({2, t_storm, 500});

  std::printf("storm run...\n");
  const auto result =
      core::Experiment::run(core::SystemConfig::FalconGpus, model, opt);
  check(result.metrics != nullptr, "result carries the metrics pipeline");
  if (result.metrics == nullptr) return 1;
  const auto& m = *result.metrics;

  std::printf("  %zu scrapes, %zu series, %zu alert transitions\n",
              m.scraper().scrapeCount(), m.scraper().seriesNames().size(),
              m.alerts().log().size());
  for (const auto& alert : m.alerts().log()) {
    std::printf("  alert %-8s t=%.2fs %s on %s (value %.3g)\n",
                alert.firing ? "FIRING" : "resolved", alert.time,
                alert.rule.c_str(), alert.series.c_str(), alert.value);
  }
  std::printf("\n");

  // --- Acceptance gates.
  check(m.scraper().scrapeCount() >= 2, "pipeline scraped at least twice");
  check(m.hasSeries("gpu_util_pct") && m.hasSeries("falcon_pcie_gbs"),
        "core gauges scraped into time series");
  check(m.hasSeries("train_iteration_ms_p95"),
        "iteration histogram percentiles scraped");

  const telemetry::Alert* fired = nullptr;
  const telemetry::Alert* resolved = nullptr;
  for (const auto& alert : m.alerts().log()) {
    if (alert.rule != "ecc-storm") continue;
    if (alert.firing && fired == nullptr) fired = &alert;
    if (!alert.firing && fired != nullptr && resolved == nullptr) {
      resolved = &alert;
    }
  }
  check(fired != nullptr, "ECC storm raised the ecc-storm alert");
  // Detection latency budget: one BMC poll to surface the errors plus one
  // scrape to evaluate the rule.
  const SimTime budget =
      opt.metrics.scrape_interval + opt.faults.health_poll_interval + 1e-9;
  check(fired != nullptr && fired->time >= t_storm &&
            fired->time <= t_storm + budget,
        "alert fired within one scrape + one BMC poll of injection");
  check(resolved != nullptr, "alert resolved after the storm passed");
  if (fired != nullptr) {
    std::printf("detection latency : %s (budget %s)\n",
                formatTime(fired->time - t_storm).c_str(),
                formatTime(budget).c_str());
  }

  // The last value of the fault counter, read back from the records.
  double faults_recorded = -1.0;
  if (const auto& prof = result.profiler) {
    const ProfileKey counter = prof->find("faults_injected");
    const ProfileKey series = prof->find("count");
    for (const telemetry::Profiler::Record& r : prof->records()) {
      if (r.phase == 'C' && r.name == counter && r.args_count > 0 &&
          prof->args(r).front().key == series) {
        faults_recorded = prof->args(r).front().num;
      }
    }
  }
  std::printf("faults_injected   : %g recorded, %llu injected\n",
              faults_recorded,
              static_cast<unsigned long long>(result.recovery.faults_injected));
  check(faults_recorded > 0.0 &&
            faults_recorded ==
                static_cast<double>(result.recovery.faults_injected),
        "traced run's last faults_injected record matches the injector");

  // --- Serial vs parallel determinism: same 4-spec matrix, --jobs 1 vs 4.
  std::printf("\ndeterminism sweep (2 benchmarks x 2 configs, jobs 1 vs 4)...\n");
  const std::vector<dl::ModelSpec> models = {dl::workload("ResNet-50"), dl::workload("BERT-L")};
  const std::vector<core::SystemConfig> configs = {
      core::SystemConfig::LocalGpus, core::SystemConfig::FalconGpus};
  auto sweep_exports = [&](int jobs) {
    core::ExperimentOptions sopt;
    sopt.trainer.epochs = 1;
    sopt.trainer.max_iterations_per_epoch = 10;
    sopt.metrics.alerts = {"idle-gpu: gpu_util_pct < 10 for 5s"};
    std::vector<std::string> out;
    for (const auto& r :
         bench::experimentMatrix(jobs, models, configs, sopt)) {
      out.push_back(r.metrics->prometheusText());
      out.push_back(r.metrics->jsonlDump());
    }
    return out;
  };
  const auto serial = sweep_exports(1);
  const auto parallel = sweep_exports(4);
  check(serial == parallel,
        "Prometheus + JSONL exports byte-identical at --jobs 1 and --jobs 4");

  // --- Exports + summary report.
  if (const Status s = m.writePrometheus(argv[1]); !s) {
    std::fprintf(stderr, "metrics_capture: %s\n", s.toString().c_str());
    return 1;
  }
  if (const Status s = m.writeJsonl(argv[2]); !s) {
    std::fprintf(stderr, "metrics_capture: %s\n", s.toString().c_str());
    return 1;
  }
  std::printf("exports written to %s / %s\n", argv[1], argv[2]);

  auto doc = falcon::Json::object();
  doc.set("bench", "metrics_capture");
  doc.set("benchmark", model.name);
  doc.set("config", "falconGPUs");
  doc.set("scrapes", static_cast<std::int64_t>(m.scraper().scrapeCount()));
  doc.set("series", static_cast<std::int64_t>(m.scraper().seriesNames().size()));
  doc.set("storm_at_s", t_storm);
  doc.set("detection_latency_s",
          fired != nullptr ? fired->time - t_storm : -1.0);
  doc.set("deterministic", serial == parallel);
  auto alerts = falcon::Json::array();
  for (const auto& alert : m.alerts().log()) {
    auto o = falcon::Json::object();
    o.set("t_s", alert.time);
    o.set("rule", alert.rule);
    o.set("series", alert.series);
    o.set("firing", alert.firing);
    o.set("value", alert.value);
    alerts.push(std::move(o));
  }
  doc.set("alerts", std::move(alerts));
  std::ofstream out(argv[3]);
  out << doc.dump(2) << "\n";
  const bool wrote = out.good();
  out.close();
  check(wrote, "BENCH_metrics.json written");

  if (g_failures) {
    std::printf("\n%d acceptance check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall acceptance checks passed\n");
  return 0;
}
