// Tests for the chaos-campaign engine: seeded scenario generation,
// --faults parse/serialize round-trips and error taxonomy, the invariant
// oracle registry, campaign determinism across worker counts, ddmin
// shrinking (pure and replay-backed), the reproducer round-trip through
// the same parse path `run_suite --faults` uses, warm-prefix forking of
// faulted specs, and the gang-exhaustion abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/chaos/campaign.hpp"
#include "core/experiment_config.hpp"
#include "core/sweep_runner.hpp"

namespace composim::core::chaos {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

BaselineTiming syntheticTiming() {
  BaselineTiming t;
  t.horizon = 10.0;
  t.mean_iteration = 0.8;
  t.iterations = 12;
  t.checkpoint_period = 3.2;
  return t;
}

// --- Scenario generation ---

TEST(ScenarioGenerator, IsAPureFunctionOfSeedAndTiming) {
  const auto a = generateScenarios(40, syntheticTiming());
  const auto b = generateScenarios(40, syntheticTiming());
  ASSERT_EQ(a.size(), 40u);
  ASSERT_EQ(b.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].describe(), b[i].describe());
    EXPECT_EQ(faultsConfigToJson(a[i].faults).dump(2),
              faultsConfigToJson(b[i].faults).dump(2));
  }
}

TEST(ScenarioGenerator, SamplesWithinTheRunHorizon) {
  const auto timing = syntheticTiming();
  std::set<std::uint64_t> seeds;
  for (const auto& s : generateScenarios(60, timing)) {
    seeds.insert(s.seed);
    EXPECT_TRUE(s.faults.enabled);
    EXPECT_EQ(s.faults.seed, s.seed);
    const std::size_t n = s.faults.gpu_falloffs.size() +
                          s.faults.ecc_storms.size() +
                          s.faults.host_port_flaps.size();
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 3u);  // faults per scenario
    const SimTime earliest = earliestFaultTime(s.faults);
    EXPECT_GE(earliest, 0.01);
    for (const auto& f : s.faults.gpu_falloffs) {
      EXPECT_LE(f.at, 0.98 * timing.horizon);
      EXPECT_LT(f.gpu_index, 8);  // falcon GPUs
    }
    for (const auto& f : s.faults.host_port_flaps) {
      EXPECT_TRUE(f.port == 0 || f.port == 2);
    }
  }
  EXPECT_EQ(seeds.size(), 60u) << "per-scenario seeds must be distinct";
}

// --- FaultsConfig JSON round-trip + error taxonomy (satellite 3) ---

TEST(FaultsConfigJson, SerializeParseRoundTripIsByteStable) {
  FaultsConfig cfg;
  cfg.enabled = true;
  cfg.seed = 1234;
  cfg.spare_gpus = 2;
  cfg.attach_failure_rate = 0.3;
  cfg.policy.attach_backoff_max = 1.5;
  cfg.policy.attach_backoff_jitter = 0.25;
  cfg.policy.attach_retry_budget = 12.0;
  cfg.gpu_falloffs.push_back({2, 1.75});
  cfg.ecc_storms.push_back({5, 0.5, 640});
  cfg.host_port_flaps.push_back({0, 2.25, 1.0});

  const std::string dumped = faultsConfigToJson(cfg).dump(2);
  FaultsConfig parsed;
  const Status st =
      parseFaultsConfig(falcon::Json::parse(dumped), &parsed);
  ASSERT_TRUE(st.ok) << st.toString();
  EXPECT_TRUE(parsed.enabled);
  EXPECT_EQ(parsed.seed, 1234u);
  EXPECT_EQ(parsed.spare_gpus, 2);
  EXPECT_DOUBLE_EQ(parsed.policy.attach_backoff_jitter, 0.25);
  EXPECT_DOUBLE_EQ(parsed.policy.attach_retry_budget, 12.0);
  EXPECT_EQ(faultsConfigToJson(parsed).dump(2), dumped);
}

TEST(FaultsConfigJson, ParseErrorsAreTypedAndListValidKinds) {
  const char* bad_docs[] = {
      R"({"gpu_faloffs": []})",                       // typo'd fault kind
      R"({"gpu_falloffs": [{"gpu": 1}]})",            // missing "at"
      R"({"gpu_falloffs": [{"gpu": 1, "at": 1, "x": 2}]})",  // unknown key
      R"({"poll_interval": 0})",                      // out of range
      R"({"attach_failure_rate": 1.5})",              // out of range
      R"({"attach_backoff_jitter": 1.0})",            // jitter must be < 1
      R"({"attach_retry_budget": -1})",               // negative budget
      R"({"ecc_storms": [{"port": 1, "at": 1}]})",    // wrong entry shape
  };
  for (const char* doc : bad_docs) {
    FaultsConfig out;
    out.seed = 4242;  // sentinel: must be untouched on error
    const Status st = parseFaultsConfig(falcon::Json::parse(doc), &out);
    ASSERT_FALSE(st.ok) << doc;
    EXPECT_EQ(st.code, StatusCode::InvalidArgument) << doc;
    EXPECT_NE(st.detail.find("valid fault kinds"), std::string::npos) << doc;
    EXPECT_EQ(out.seed, 4242u) << "out must be untouched on error: " << doc;
  }
  // The legacy throwing wrapper surfaces the same detail.
  EXPECT_THROW(parseFaultsConfig(falcon::Json::parse(R"({"bogus": 1})")),
               std::invalid_argument);
}

// --- Oracle registry ---

/// A healthy completed run that every standard oracle accepts.
struct Fixture {
  ExperimentSpec spec;
  Status status;
  ExperimentResult result;

  Fixture() {
    spec.options.trainer.epochs = 1;
    spec.options.trainer.max_iterations_per_epoch = 12;
    spec.options.trainer.checkpoint_every_iters = 4;
    result.training.completed = true;
    result.training.iterations_run = 12;
    result.recovery.enabled = true;
    result.recovery.terminal_state = RecoveryTerminalState::Idle;
  }

  OracleInput input() const { return {&spec, &status, &result}; }
};

std::vector<std::string> failedOracles(const OracleRegistry& reg,
                                       const OracleInput& in) {
  std::vector<std::string> failed;
  for (const auto& v : reg.evaluate(in)) {
    if (!v.passed) failed.push_back(v.oracle);
  }
  return failed;
}

TEST(Oracles, StandardRegistryAcceptsAHealthyRun) {
  const auto reg = OracleRegistry::standard();
  EXPECT_EQ(reg.size(), 6u);
  Fixture f;
  EXPECT_TRUE(failedOracles(reg, f.input()).empty());
}

TEST(Oracles, LivenessCatchesWatchdogAndOpenIncidents) {
  const auto reg = OracleRegistry::standard();
  Fixture f;
  f.status = Status::internal("watchdog: simulation still live at t=42s");
  auto failed = failedOracles(reg, {&f.spec, &f.status, nullptr});
  EXPECT_NE(std::find(failed.begin(), failed.end(), "liveness.terminal-state"),
            failed.end());

  Fixture g;
  g.result.recovery.terminal_state = RecoveryTerminalState::InFlight;
  failed = failedOracles(reg, g.input());
  EXPECT_NE(std::find(failed.begin(), failed.end(), "liveness.terminal-state"),
            failed.end());
}

TEST(Oracles, HonestyCatchesSilentFailureAndSilentSuccess) {
  const auto reg = OracleRegistry::standard();
  Fixture f;  // failed training with no error string
  f.result.training.completed = false;
  f.result.training.error.clear();
  auto failed = failedOracles(reg, f.input());
  EXPECT_NE(std::find(failed.begin(), failed.end(), "honesty.typed-status"),
            failed.end());

  Fixture g;  // "unrecoverable" yet claiming success
  g.result.recovery.terminal_state = RecoveryTerminalState::Unrecoverable;
  failed = failedOracles(reg, g.input());
  EXPECT_NE(std::find(failed.begin(), failed.end(), "honesty.typed-status"),
            failed.end());
}

TEST(Oracles, IterationAccountingBoundsLostWork) {
  const auto reg = OracleRegistry::standard();
  Fixture f;  // lost iterations without any restore
  f.result.training.lost_iterations = 3;
  auto failed = failedOracles(reg, f.input());
  EXPECT_NE(
      std::find(failed.begin(), failed.end(), "safety.iteration-accounting"),
      failed.end());

  Fixture g;  // one restore can lose at most one replay window (4)
  g.result.training.restores = 1;
  g.result.training.lost_iterations = 5;
  failed = failedOracles(reg, g.input());
  EXPECT_NE(
      std::find(failed.begin(), failed.end(), "safety.iteration-accounting"),
      failed.end());

  Fixture h;  // at the bound: fine
  h.result.training.restores = 1;
  h.result.training.lost_iterations = 4;
  EXPECT_TRUE(failedOracles(reg, h.input()).empty());
}

TEST(Oracles, FlowConservationRequiresBalancedBooks) {
  const auto reg = OracleRegistry::standard();
  Fixture f;
  f.result.recovery.flows_started = 10;
  f.result.recovery.flows_completed = 9;  // one flow unaccounted
  auto failed = failedOracles(reg, f.input());
  EXPECT_NE(std::find(failed.begin(), failed.end(), "safety.flow-conservation"),
            failed.end());

  Fixture g;
  g.result.recovery.flows_active_at_end = 1;
  failed = failedOracles(reg, g.input());
  EXPECT_NE(std::find(failed.begin(), failed.end(), "safety.flow-conservation"),
            failed.end());
}

TEST(Oracles, QuarantineIsolationRejectsReusedSlots) {
  const auto reg = OracleRegistry::standard();
  Fixture f;
  f.result.recovery.quarantined_slots = {{0, 2}, {0, 2}};  // double quarantine
  auto failed = failedOracles(reg, f.input());
  EXPECT_NE(
      std::find(failed.begin(), failed.end(), "safety.quarantine-isolation"),
      failed.end());

  Fixture g;  // spare attached into a quarantined slot
  g.result.recovery.quarantined_slots = {{1, 3}};
  RecoveryIncident inc;
  inc.spare_slot = {1, 3};
  g.result.recovery.incidents.push_back(inc);
  failed = failedOracles(reg, g.input());
  EXPECT_NE(
      std::find(failed.begin(), failed.end(), "safety.quarantine-isolation"),
      failed.end());
}

TEST(Oracles, DetectionConsistencyRejectsPhantomDetections) {
  const auto reg = OracleRegistry::standard();
  Fixture f;  // a detection with an empty fault schedule
  falcon::FaultEvent ev;
  ev.time = 1.0;
  f.result.recovery.detections_log.push_back(ev);
  auto failed = failedOracles(reg, f.input());
  EXPECT_NE(
      std::find(failed.begin(), failed.end(), "safety.detection-consistency"),
      failed.end());
}

// --- Shrinking (pure predicates: no simulation) ---

FaultsConfig fiveFaultSchedule() {
  FaultsConfig cfg;
  cfg.enabled = true;
  cfg.gpu_falloffs.push_back({1, 1.234});
  cfg.gpu_falloffs.push_back({3, 2.567});
  cfg.ecc_storms.push_back({4, 3.141, 500});
  cfg.host_port_flaps.push_back({0, 4.2, 1.0});
  cfg.host_port_flaps.push_back({2, 5.5, 0.5});
  return cfg;
}

TEST(Shrink, DdminIsolatesTheCulpritAtom) {
  // "Fails" iff the schedule still drops GPU 3 — everything else is noise.
  const auto culprit = [](const FaultsConfig& c) {
    for (const auto& f : c.gpu_falloffs) {
      if (f.gpu_index == 3) return true;
    }
    return false;
  };
  const ShrinkOutcome out = shrinkFaultSchedule(fiveFaultSchedule(), culprit);
  EXPECT_TRUE(out.input_failed);
  EXPECT_EQ(out.initial_faults, 5);
  EXPECT_EQ(out.minimal_faults, 1);
  ASSERT_EQ(out.minimal.gpu_falloffs.size(), 1u);
  EXPECT_EQ(out.minimal.gpu_falloffs[0].gpu_index, 3);
  EXPECT_TRUE(out.minimal.ecc_storms.empty());
  EXPECT_TRUE(out.minimal.host_port_flaps.empty());
  // Time coarsening rounded 2.567 to the coarsest still-failing value.
  EXPECT_DOUBLE_EQ(out.minimal.gpu_falloffs[0].at, 3.0);

  // Determinism: a pure predicate always shrinks the same way.
  const ShrinkOutcome again = shrinkFaultSchedule(fiveFaultSchedule(), culprit);
  EXPECT_EQ(faultsConfigToJson(again.minimal).dump(2),
            faultsConfigToJson(out.minimal).dump(2));
  EXPECT_EQ(again.evaluations, out.evaluations);
}

TEST(Shrink, KeepsPairsThatOnlyFailTogether) {
  // Fails only when a falloff AND a flap are both present (interaction bug).
  const auto pair = [](const FaultsConfig& c) {
    return !c.gpu_falloffs.empty() && !c.host_port_flaps.empty();
  };
  const ShrinkOutcome out = shrinkFaultSchedule(fiveFaultSchedule(), pair);
  EXPECT_TRUE(out.input_failed);
  EXPECT_EQ(out.minimal_faults, 2);
  EXPECT_EQ(out.minimal.gpu_falloffs.size(), 1u);
  EXPECT_EQ(out.minimal.host_port_flaps.size(), 1u);
}

TEST(Shrink, PassingInputIsReturnedUnchanged) {
  const auto never = [](const FaultsConfig&) { return false; };
  const ShrinkOutcome out = shrinkFaultSchedule(fiveFaultSchedule(), never);
  EXPECT_FALSE(out.input_failed);
  EXPECT_EQ(out.evaluations, 1);
  EXPECT_EQ(out.minimal_faults, out.initial_faults);
  EXPECT_EQ(faultsConfigToJson(out.minimal).dump(2),
            faultsConfigToJson(fiveFaultSchedule()).dump(2));
}

TEST(Shrink, RespectsTheEvaluationCap) {
  int calls = 0;
  const auto count = [&calls](const FaultsConfig& c) {
    ++calls;
    return !c.gpu_falloffs.empty();
  };
  ShrinkOptions opt;
  opt.max_evaluations = 3;
  const ShrinkOutcome out =
      shrinkFaultSchedule(fiveFaultSchedule(), count, opt);
  EXPECT_LE(out.evaluations, 3);
  EXPECT_EQ(out.evaluations, calls);
}

// --- Campaign end-to-end (real simulations; small scenario counts) ---

CampaignOptions miniCampaign(int jobs) {
  CampaignOptions opt;
  opt.jobs = jobs;
  opt.count = 16;
  opt.warm_prefix = 3;
  return opt;
}

TEST(ChaosCampaign, TwinCampaignsAreByteIdenticalAcrossWorkerCounts) {
  ChaosCampaign serial(miniCampaign(1));
  ChaosCampaign parallel(miniCampaign(4));
  const CampaignReport a = serial.run();
  const CampaignReport b = parallel.run();
  ASSERT_EQ(a.outcomes.size(), 16u);
  EXPECT_EQ(a.digest, b.digest);
  // Golden: the campaign's fault space, training setup and judging are
  // constants, so any change to them moves these two numbers.
  EXPECT_EQ(a.digest.size(), 1536u);
  EXPECT_EQ(fnv1a(a.digest), 5833759694979639398ULL);
  EXPECT_EQ(a.verdicts_recorded, 16u * serial.oracles().size());
  EXPECT_EQ(a.oracle_failures, 0);
  EXPECT_EQ(a.survived, 16);
  EXPECT_GT(a.baseline.horizon, 0.0);
  // Every scenario carries the full verdict set, pass or fail.
  for (const auto& o : a.outcomes) {
    EXPECT_EQ(o.verdicts.size(), serial.oracles().size());
    EXPECT_FALSE(o.digest.empty());
  }
}

/// The seeded known-failure scenario the bench also shrinks: with zero
/// spares the GPU falloff irreversibly degrades the gang; the ECC storm
/// (proactive swap off) and the short port flap are bystanders.
ExperimentSpec knownFailureSpec(SimTime horizon) {
  ExperimentSpec spec;
  spec.name = "known-failure";
  spec.workload = "MobileNetV2";
  spec.options.workload = spec.workload;
  spec.config = SystemConfig::FalconGpus;
  spec.options.trainer.epochs = 1;
  spec.options.trainer.max_iterations_per_epoch = 12;
  spec.options.trainer.checkpoint_every_iters = 4;
  spec.options.watchdog = 25.0 * horizon;
  spec.options.faults.enabled = true;
  spec.options.faults.seed = 7;
  spec.options.faults.spare_gpus = 0;
  spec.options.faults.policy.proactive_on_error_storm = false;
  spec.options.faults.ecc_storms.push_back({1, 0.2 * horizon, 400});
  spec.options.faults.gpu_falloffs.push_back({2, 0.3 * horizon});
  spec.options.faults.host_port_flaps.push_back({0, 0.5 * horizon, 0.1});
  return spec;
}

OracleRegistry fullGangOracle() {
  OracleRegistry reg;
  reg.add("chaos.full-gang", [](const OracleInput& in) {
    if (in.result == nullptr || !in.result->training.completed ||
        in.result->recovery.degradations > 0 ||
        in.result->recovery.final_gang_size < 8) {
      return Status::failedPrecondition("gang degraded or run failed");
    }
    return Status::success();
  });
  return reg;
}

TEST(ChaosCampaign, ShrunkReproducerRoundTripsThroughFaultsJson) {
  ChaosCampaign campaign(miniCampaign(1));
  const BaselineTiming timing = campaign.measureBaseline();
  const ExperimentSpec seeded = knownFailureSpec(timing.horizon);
  const OracleRegistry strict = fullGangOracle();
  const auto predicate =
      failsOraclePredicate(seeded, strict, "chaos.full-gang");

  const ShrinkOutcome s1 =
      shrinkFaultSchedule(seeded.options.faults, predicate);
  ASSERT_TRUE(s1.input_failed);
  EXPECT_EQ(s1.minimal_faults, 1);
  ASSERT_EQ(s1.minimal.gpu_falloffs.size(), 1u);

  // Repeat shrink: byte-identical minimal --faults JSON.
  const ShrinkOutcome s2 =
      shrinkFaultSchedule(seeded.options.faults, predicate);
  const std::string repro = faultsConfigToJson(s1.minimal).dump(2);
  EXPECT_EQ(repro, faultsConfigToJson(s2.minimal).dump(2));
  EXPECT_EQ(s1.evaluations, s2.evaluations);

  // Round-trip: the dumped reproducer re-parses through the exact path
  // `run_suite --faults <file>` uses, and replays to the same failure.
  FaultsConfig reparsed;
  const Status st = parseFaultsConfig(falcon::Json::parse(repro), &reparsed);
  ASSERT_TRUE(st.ok) << st.toString();
  ExperimentSpec replay = seeded;
  replay.options.faults = reparsed;
  const SweepRun rerun = runSingleSpec(replay);
  ASSERT_TRUE(rerun.status.ok) << rerun.status.toString();
  const OracleInput in{&replay, &rerun.status, &rerun.result};
  bool still_fails = false;
  for (const auto& v : strict.evaluate(in)) {
    if (v.oracle == "chaos.full-gang") still_fails = !v.passed;
  }
  EXPECT_TRUE(still_fails);
}

TEST(ChaosCampaign, GangExhaustionAbortsWithTypedError) {
  ChaosCampaign campaign(miniCampaign(1));
  const BaselineTiming timing = campaign.measureBaseline();
  ExperimentSpec spec = knownFailureSpec(timing.horizon);
  spec.options.faults.ecc_storms.clear();
  spec.options.faults.host_port_flaps.clear();
  spec.options.faults.gpu_falloffs.clear();
  for (int g = 0; g < 8; ++g) {
    spec.options.faults.gpu_falloffs.push_back(
        {g, (0.2 + 0.05 * g) * timing.horizon});
  }
  const SweepRun run = runSingleSpec(spec);
  ASSERT_TRUE(run.status.ok) << run.status.toString();  // run, not throw
  EXPECT_FALSE(run.result.training.completed);
  EXPECT_NE(run.result.training.error.find("unrecoverable"),
            std::string::npos);
  EXPECT_EQ(run.result.recovery.terminal_state,
            RecoveryTerminalState::Unrecoverable);
  // The abort is honest: every standard oracle accepts it.
  const OracleInput in{&spec, &run.status, &run.result};
  for (const auto& v : OracleRegistry::standard().evaluate(in)) {
    EXPECT_TRUE(v.passed) << v.oracle << ": " << v.detail;
  }
}

// --- Warm-prefix forking of faulted specs (satellite 1) ---

std::string recoveryFingerprint(const ExperimentResult& r) {
  std::string s;
  s += std::to_string(r.training.iterations_run) + "|";
  s += std::to_string(r.training.simulated_time) + "|";
  s += std::to_string(r.training.lost_iterations) + "|";
  s += std::to_string(r.training.restores) + "|";
  s += std::to_string(r.recovery.detections) + "|";
  s += std::to_string(r.recovery.mean_mttr) + "|";
  s += std::to_string(r.recovery.final_gang_size) + "|";
  s += toString(r.recovery.terminal_state);
  for (const auto& f : r.recovery.fault_history) {
    s += std::string("|").append(std::to_string(f.time));
  }
  return s;
}

TEST(WarmPrefixFaults, ForkedTailMatchesColdRunWhenFaultsFitTheTail) {
  ChaosCampaign campaign(miniCampaign(1));
  const BaselineTiming timing = campaign.measureBaseline();
  // Two specs sharing one warm prefix (same key, different tail lengths),
  // each injecting strictly after the 3-iteration pause boundary.
  auto makeSpec = [&](const char* name, int cap) {
    ExperimentSpec spec = knownFailureSpec(timing.horizon);
    spec.name = name;
    spec.options.trainer.max_iterations_per_epoch = cap;
    spec.options.warm_prefix = 3;
    // One late falloff; the prefix covers iterations 1..3, so an
    // injection at 80% of the healthy horizon is deep in the tail.
    spec.options.faults.ecc_storms.clear();
    spec.options.faults.host_port_flaps.clear();
    spec.options.faults.gpu_falloffs.clear();
    spec.options.faults.gpu_falloffs.push_back({2, 0.8 * timing.horizon});
    return spec;
  };
  std::vector<ExperimentSpec> specs = {makeSpec("fork-a", 12),
                                       makeSpec("fork-b", 10)};
  ASSERT_TRUE(warmPrefixApplicable(specs[0]));
  ASSERT_EQ(warmPrefixKey(specs[0]), warmPrefixKey(specs[1]));

  SweepOptions forked_opt;
  forked_opt.jobs = 1;
  forked_opt.share_warm_prefixes = true;
  SweepOptions cold_opt;
  cold_opt.jobs = 1;
  cold_opt.share_warm_prefixes = false;
  const auto forked = SweepRunner(forked_opt).run(specs);
  const auto cold = SweepRunner(cold_opt).run(specs);
  ASSERT_EQ(forked.size(), 2u);
  for (std::size_t i = 0; i < forked.size(); ++i) {
    ASSERT_TRUE(forked[i].status.ok) << forked[i].status.detail;
    ASSERT_TRUE(cold[i].status.ok) << cold[i].status.detail;
    EXPECT_TRUE(forked[i].result.recovery.enabled);
    EXPECT_GE(forked[i].result.training.restores, 1);
    EXPECT_EQ(recoveryFingerprint(forked[i].result),
              recoveryFingerprint(cold[i].result));
  }
}

TEST(WarmPrefixFaults, FaultInsidePrefixFallsBackToAColdRun) {
  ChaosCampaign campaign(miniCampaign(1));
  const BaselineTiming timing = campaign.measureBaseline();
  ExperimentSpec spec = knownFailureSpec(timing.horizon);
  spec.options.warm_prefix = 3;
  spec.options.faults.ecc_storms.clear();
  spec.options.faults.host_port_flaps.clear();
  spec.options.faults.gpu_falloffs.clear();
  // Mid-first-iteration injection: inside any warm prefix.
  spec.options.faults.gpu_falloffs.push_back({2, 0.4 * timing.mean_iteration});
  ASSERT_TRUE(warmPrefixApplicable(spec));

  // runExperimentSpec must not throw — the WarmedExperiment ctor rejects
  // the boundary at runtime and the spec silently runs cold.
  const ExperimentResult phased = runExperimentSpec(spec);
  ExperimentSpec continuous = spec;
  continuous.options.warm_prefix = 0;
  const ExperimentResult cold = runExperimentSpec(continuous);
  EXPECT_TRUE(phased.training.completed);
  EXPECT_EQ(recoveryFingerprint(phased), recoveryFingerprint(cold));

  // The same schedule through the SweepRunner (a group of two) must also
  // fall back per-member without failing the group.
  ExperimentSpec sibling = spec;
  sibling.name = "sibling";
  sibling.options.trainer.max_iterations_per_epoch = 10;
  SweepOptions opt;
  opt.jobs = 2;
  const auto runs = SweepRunner(opt).run({spec, sibling});
  for (const auto& run : runs) {
    EXPECT_TRUE(run.status.ok) << run.status.detail;
    EXPECT_TRUE(run.result.training.completed);
  }
}

// --- Backoff jitter + retry budget (satellite 2) ---

TEST(RecoveryPolicy, RetryBudgetBoundsTheBackoffWaitDeterministically) {
  ChaosCampaign campaign(miniCampaign(1));
  const BaselineTiming timing = campaign.measureBaseline();
  ExperimentSpec spec = knownFailureSpec(timing.horizon);
  spec.options.faults.ecc_storms.clear();
  spec.options.faults.host_port_flaps.clear();
  spec.options.faults.spare_gpus = 1;
  spec.options.faults.attach_failure_rate = 1.0;  // attach never succeeds
  spec.options.faults.policy.max_attach_retries = 1000;  // budget binds first
  spec.options.faults.policy.attach_backoff_initial = 0.05;
  spec.options.faults.policy.attach_backoff_max = 0.2;
  spec.options.faults.policy.attach_backoff_jitter = 0.25;
  spec.options.faults.policy.attach_retry_budget = 1.0;

  // Without the budget, rate 1.0 + unlimited retries would spin forever
  // (the watchdog would trip). The budget turns it into degradation.
  const SweepRun a = runSingleSpec(spec);
  ASSERT_TRUE(a.status.ok) << a.status.toString();
  EXPECT_TRUE(a.result.training.completed);
  EXPECT_GE(a.result.recovery.degradations, 1);
  ASSERT_FALSE(a.result.recovery.incidents.empty());
  const auto& inc = a.result.recovery.incidents.front();
  EXPECT_LE(inc.backoff_waited,
            spec.options.faults.policy.attach_retry_budget + 1e-9);
  EXPECT_GT(inc.backoff_waited, 0.0);

  // Jitter draws come from the orchestrator's seeded stream: identical
  // reruns are bit-identical.
  const SweepRun b = runSingleSpec(spec);
  EXPECT_EQ(recoveryFingerprint(a.result), recoveryFingerprint(b.result));
  EXPECT_EQ(a.result.recovery.reattach_retries,
            b.result.recovery.reattach_retries);
}

}  // namespace
}  // namespace composim::core::chaos
