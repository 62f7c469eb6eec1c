// composim: deterministic chaos-campaign engine.
//
// A campaign sweeps the recovery layer across the fault space instead of
// hand-picked storms: measure one healthy baseline, sample N seeded
// scenarios anchored to its timing (scenario.hpp), fan them across the
// SweepRunner (--jobs parallelism, submission-ordered results), and
// check every outcome against the invariant-oracle registry
// (oracles.hpp). Failing scenarios shrink to minimal replayable --faults
// reproducers (shrink.hpp).
//
// Everything downstream of the campaign seed is deterministic: scenario
// generation is a pure function of (seed, baseline), each run is the
// same single-threaded event loop it always was, and oracle evaluation
// is a pure function of outcomes — so twin campaigns are byte-identical
// digest-for-digest at any --jobs value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/chaos/oracles.hpp"
#include "core/chaos/scenario.hpp"
#include "core/chaos/shrink.hpp"
#include "core/sweep_runner.hpp"

namespace composim::core::chaos {

struct CampaignOptions {
  /// Scenarios sampled from the fault space (scenario.hpp).
  int count = 200;
  /// Worker threads for the scenario sweep (<= 0: hardware concurrency).
  int jobs = 1;
  /// Warm-prefix boundary shared across scenarios (0 = every run cold).
  /// Scenarios whose earliest fault lands inside the prefix fall back to
  /// cold runs automatically (SweepRunner per-member check).
  std::int64_t warm_prefix = 0;
};

/// One scenario's judged outcome.
struct ScenarioOutcome {
  Scenario scenario;
  Status run_status;
  bool survived = false;  // run ok && training completed
  RecoveryTerminalState terminal = RecoveryTerminalState::Idle;
  std::vector<OracleVerdict> verdicts;
  bool oracles_passed = true;
  /// Resolved, non-abandoned incident MTTRs from this run.
  std::vector<double> incident_mttrs;
  /// Canonical fixed-precision one-liner; the campaign digest is the
  /// newline-join of these, and the --jobs byte-identity gate compares
  /// digests across worker counts.
  std::string digest;
};

struct CampaignReport {
  BaselineTiming baseline;
  std::vector<ScenarioOutcome> outcomes;
  int survived = 0;
  double survival_rate = 0.0;
  double mttr_p50 = 0.0;
  double mttr_p95 = 0.0;
  int oracle_failures = 0;        // scenarios with >= 1 failed verdict
  std::uint64_t verdicts_recorded = 0;
  std::string digest;
};

class ChaosCampaign {
 public:
  /// The workload and configuration every campaign run trains.
  static constexpr const char* kWorkload = "MobileNetV2";
  static constexpr SystemConfig kConfig = SystemConfig::FalconGpus;

  explicit ChaosCampaign(CampaignOptions options,
                         OracleRegistry oracles = OracleRegistry::standard());

  const CampaignOptions& options() const { return options_; }
  const OracleRegistry& oracles() const { return oracles_; }

  /// One healthy (fault-free) run of the campaign workload; its timing
  /// anchors every scenario's injection times and the watchdog.
  BaselineTiming measureBaseline() const;

  /// The ExperimentSpec a scenario replays as (also the base for
  /// shrinking and reproducer replay).
  ExperimentSpec specForScenario(const Scenario& scenario,
                                 const BaselineTiming& timing) const;

  /// Run the full campaign: baseline, generate, sweep, judge, aggregate.
  CampaignReport run();

 private:
  CampaignOptions options_;
  OracleRegistry oracles_;
};

/// Run one spec with SweepRun semantics (exceptions become a typed
/// internal Status instead of escaping) — the building block for shrink
/// predicates and reproducer replays.
SweepRun runSingleSpec(const ExperimentSpec& spec);

/// Shrink predicate: substitute the candidate schedule into `spec`,
/// replay, and report whether `oracle_name` still fails. `oracles` must
/// contain the named oracle (the predicate returns false otherwise, so
/// shrinking degenerates to a no-op rather than minimizing noise).
FaultPredicate failsOraclePredicate(ExperimentSpec spec,
                                    OracleRegistry oracles,
                                    std::string oracle_name);

}  // namespace composim::core::chaos
