#include "core/chaos/campaign.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/metrics.hpp"

namespace composim::core::chaos {

namespace {
// Every run trains one capped epoch with a checkpoint every few
// iterations, so restores have a replay window to rewind into.
constexpr int kEpochs = 1;
constexpr int kIterationsCap = 12;
constexpr int kCheckpointEveryIters = 4;
constexpr SimTime kSampleInterval = 0.5;
/// Liveness watchdog per scenario, as a multiple of the healthy baseline
/// duration (degraded gangs legitimately run several times slower; a hung
/// gang runs forever — the factor separates the two).
constexpr double kWatchdogFactor = 25.0;

/// The training setup shared by the baseline and every scenario.
ExperimentSpec campaignSpec(std::string name) {
  ExperimentSpec spec;
  spec.name = std::move(name);
  spec.workload = ChaosCampaign::kWorkload;
  spec.options.workload = spec.workload;
  spec.config = ChaosCampaign::kConfig;
  spec.options.trainer.epochs = kEpochs;
  spec.options.trainer.max_iterations_per_epoch = kIterationsCap;
  spec.options.trainer.checkpoint_every_iters = kCheckpointEveryIters;
  spec.options.sample_interval = kSampleInterval;
  return spec;
}
}  // namespace

ChaosCampaign::ChaosCampaign(CampaignOptions options, OracleRegistry oracles)
    : options_(std::move(options)), oracles_(std::move(oracles)) {}

BaselineTiming ChaosCampaign::measureBaseline() const {
  const ExperimentResult healthy =
      runExperimentSpec(campaignSpec("chaos-baseline"));

  BaselineTiming timing;
  timing.horizon = healthy.training.simulated_time;
  timing.mean_iteration = healthy.training.mean_iteration_time;
  timing.iterations = healthy.training.iterations_run;
  timing.checkpoint_period = healthy.training.mean_iteration_time *
                             static_cast<double>(kCheckpointEveryIters);
  return timing;
}

ExperimentSpec ChaosCampaign::specForScenario(
    const Scenario& scenario, const BaselineTiming& timing) const {
  char name[32];
  std::snprintf(name, sizeof(name), "chaos-%04d", scenario.index);
  ExperimentSpec spec = campaignSpec(name);
  spec.options.warm_prefix = options_.warm_prefix;
  spec.options.faults = scenario.faults;
  spec.options.watchdog =
      kWatchdogFactor * std::max(1e-3, timing.horizon);
  return spec;
}

namespace {

std::string outcomeDigest(const ScenarioOutcome& o) {
  char buf[256];
  long long iters = 0, lost = 0, restores = 0;
  unsigned long long detections = 0, retries = 0;
  std::size_t gang = 0;
  double mean_mttr = 0.0;
  // The digest only reads plain numbers, so failed runs (no result)
  // digest their zeros plus the status code — still byte-stable.
  std::string verdict_bits;
  for (const auto& v : o.verdicts) verdict_bits += v.passed ? '1' : '0';
  std::snprintf(buf, sizeof(buf),
                "s=%04d code=%d surv=%d term=%s it=%lld lost=%lld rst=%lld "
                "det=%llu ret=%llu gang=%zu mttr=%.6f v=%s",
                o.scenario.index, static_cast<int>(o.run_status.code),
                o.survived ? 1 : 0, toString(o.terminal), iters, lost,
                restores, detections, retries, gang, mean_mttr,
                verdict_bits.c_str());
  return buf;
}

std::string outcomeDigest(const ScenarioOutcome& o,
                          const ExperimentResult& r) {
  char buf[256];
  std::string verdict_bits;
  for (const auto& v : o.verdicts) verdict_bits += v.passed ? '1' : '0';
  std::snprintf(
      buf, sizeof(buf),
      "s=%04d code=%d surv=%d term=%s it=%lld lost=%lld rst=%lld "
      "det=%llu ret=%llu gang=%zu mttr=%.6f v=%s",
      o.scenario.index, static_cast<int>(o.run_status.code),
      o.survived ? 1 : 0, toString(o.terminal),
      static_cast<long long>(r.training.iterations_run),
      static_cast<long long>(r.training.lost_iterations),
      static_cast<long long>(r.training.restores),
      static_cast<unsigned long long>(r.recovery.detections),
      static_cast<unsigned long long>(r.recovery.reattach_retries),
      r.recovery.final_gang_size, r.recovery.mean_mttr, verdict_bits.c_str());
  return buf;
}

}  // namespace

CampaignReport ChaosCampaign::run() {
  CampaignReport report;
  report.baseline = measureBaseline();

  const std::vector<Scenario> scenarios =
      generateScenarios(options_.count, report.baseline);

  std::vector<ExperimentSpec> specs;
  specs.reserve(scenarios.size());
  for (const Scenario& s : scenarios) {
    specs.push_back(specForScenario(s, report.baseline));
  }

  SweepOptions sweep;
  sweep.jobs = options_.jobs;
  SweepRunner runner(sweep);
  const std::vector<SweepRun> runs = runner.run(std::move(specs));

  // Judge on the calling thread, in submission order: oracle evaluation
  // is a pure function of each outcome, so this is where determinism
  // across --jobs values is decided (and why it holds).
  std::vector<double> mttrs;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SweepRun& run = runs[i];
    ScenarioOutcome outcome;
    outcome.scenario = scenarios[i];
    outcome.run_status = run.status;
    const ExperimentResult* result = run.status.ok ? &run.result : nullptr;
    outcome.survived = result != nullptr && result->training.completed;
    if (result != nullptr && result->recovery.enabled) {
      outcome.terminal = result->recovery.terminal_state;
      for (const auto& inc : result->recovery.incidents) {
        if (inc.resolved() && !inc.abandoned) {
          outcome.incident_mttrs.push_back(inc.mttr());
        }
      }
    }
    OracleInput input{&run.spec, &run.status, result};
    outcome.verdicts = oracles_.evaluate(input);
    for (const auto& v : outcome.verdicts) {
      outcome.oracles_passed = outcome.oracles_passed && v.passed;
    }
    outcome.digest = result != nullptr ? outcomeDigest(outcome, *result)
                                       : outcomeDigest(outcome);

    report.verdicts_recorded += outcome.verdicts.size();
    if (outcome.survived) ++report.survived;
    if (!outcome.oracles_passed) ++report.oracle_failures;
    mttrs.insert(mttrs.end(), outcome.incident_mttrs.begin(),
                 outcome.incident_mttrs.end());
    if (!report.digest.empty()) report.digest += '\n';
    report.digest += outcome.digest;
    report.outcomes.push_back(std::move(outcome));
  }

  report.survival_rate =
      report.outcomes.empty()
          ? 0.0
          : static_cast<double>(report.survived) /
                static_cast<double>(report.outcomes.size());
  std::sort(mttrs.begin(), mttrs.end());
  report.mttr_p50 = telemetry::percentile(mttrs, 50.0);
  report.mttr_p95 = telemetry::percentile(mttrs, 95.0);
  return report;
}

SweepRun runSingleSpec(const ExperimentSpec& spec) {
  SweepRun run;
  run.spec = spec;
  try {
    run.result = runExperimentSpec(run.spec);
    run.status = Status::success();
  } catch (const std::exception& e) {
    run.status = Status::internal(std::string("sweep run '") + run.spec.name +
                                  "' failed: " + e.what());
  } catch (...) {
    run.status = Status::internal(std::string("sweep run '") + run.spec.name +
                                  "' failed: unknown exception");
  }
  return run;
}

FaultPredicate failsOraclePredicate(ExperimentSpec spec,
                                    OracleRegistry oracles,
                                    std::string oracle_name) {
  return [spec = std::move(spec), oracles = std::move(oracles),
          oracle_name = std::move(oracle_name)](const FaultsConfig& faults) {
    ExperimentSpec candidate = spec;
    candidate.options.faults = faults;
    candidate.options.faults.enabled = true;
    const SweepRun run = runSingleSpec(candidate);
    const ExperimentResult* result = run.status.ok ? &run.result : nullptr;
    OracleInput input{&candidate, &run.status, result};
    for (const OracleVerdict& v : oracles.evaluate(input)) {
      if (v.oracle == oracle_name) return !v.passed;
    }
    return false;  // unknown oracle: nothing can "still fail"
  };
}

}  // namespace composim::core::chaos
