// composim bench: deterministic chaos campaign over the recovery layer.
//
// Sweeps a seeded 200-scenario sample of the fault space (device
// falloffs, ECC storms, host-port flaps; overlapping combinations;
// injection times stratified across iteration/checkpoint/collective
// boundaries) across the SweepRunner and judges every outcome against
// the invariant-oracle registry: liveness (watchdog-bounded termination),
// safety (iteration accounting, flow conservation, quarantine isolation,
// detection consistency) and honesty (typed Status, no silent success).
//
// The run doubles as an acceptance gate (exit nonzero on violation):
//   (a) every scenario completes with a full oracle verdict set recorded,
//   (b) no oracle fails anywhere in the campaign,
//   (c) survival rate and MTTR p50/p95 are reported,
//   (d) twin campaigns at --jobs 1 and --jobs 4 are byte-identical
//       digest-for-digest,
//   (e) a seeded known-failure scenario shrinks to the same minimal
//       --faults reproducer on repeat runs (ddmin determinism).
//
//   $ ./bench/chaos_campaign [BENCH_chaos.json]
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/chaos/campaign.hpp"
#include "core/experiment_config.hpp"
#include "telemetry/report.hpp"

using namespace composim;
using namespace composim::core::chaos;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

CampaignOptions campaignOptions(int jobs) {
  CampaignOptions opt;
  opt.jobs = jobs;
  // Boundary must avoid the checkpoint window (4) and the epoch edge (12)
  // to be fork-applicable; scenarios whose earliest fault lands inside
  // the prefix fall back to cold runs automatically.
  opt.warm_prefix = 3;
  return opt;
}

falcon::Json reportToJson(const CampaignReport& r) {
  auto j = falcon::Json::object();
  j.set("scenarios", static_cast<std::int64_t>(r.outcomes.size()));
  j.set("survived", static_cast<std::int64_t>(r.survived));
  j.set("survival_rate", r.survival_rate);
  j.set("mttr_p50_s", r.mttr_p50);
  j.set("mttr_p95_s", r.mttr_p95);
  j.set("oracle_failures", static_cast<std::int64_t>(r.oracle_failures));
  j.set("verdicts_recorded", static_cast<std::int64_t>(r.verdicts_recorded));
  auto terminals = falcon::Json::object();
  std::map<std::string, std::int64_t> by_terminal;
  for (const auto& o : r.outcomes) ++by_terminal[core::toString(o.terminal)];
  for (const auto& [name, n] : by_terminal) terminals.set(name, n);
  j.set("terminal_states", std::move(terminals));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("chaos campaign",
                "fault-space sweep + invariant oracles + reproducer shrinking");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_chaos.json";

  // --- Twin campaigns: identical options except the worker count. The
  // campaign digest is a fixed-precision line per scenario, so equality
  // is byte-identity of everything the oracles judged.
  std::printf("campaign A (--jobs 1, %d scenarios)...\n",
              campaignOptions(1).count);
  ChaosCampaign campaign_a(campaignOptions(1));
  const CampaignReport a = campaign_a.run();
  std::printf("campaign B (--jobs 4, same seed)...\n\n");
  ChaosCampaign campaign_b(campaignOptions(4));
  const CampaignReport b = campaign_b.run();

  std::map<std::string, int> by_terminal;
  for (const auto& o : a.outcomes) ++by_terminal[core::toString(o.terminal)];
  telemetry::Table t({"Terminal state", "scenarios"});
  for (const auto& [name, n] : by_terminal) {
    t.addRow({name, std::to_string(n)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("scenarios                 : %zu\n", a.outcomes.size());
  std::printf("survival rate             : %.1f %%\n", 100.0 * a.survival_rate);
  std::printf("MTTR p50 / p95            : %s / %s\n",
              formatTime(a.mttr_p50).c_str(), formatTime(a.mttr_p95).c_str());
  std::printf("oracle verdicts recorded  : %llu (%zu oracles x %zu scenarios)\n",
              static_cast<unsigned long long>(a.verdicts_recorded),
              campaign_a.oracles().size(), a.outcomes.size());
  std::printf("scenarios with a failed oracle: %d\n\n", a.oracle_failures);
  for (const auto& o : a.outcomes) {
    if (o.oracles_passed) continue;
    std::printf("  FAILED %s (%s)\n", o.scenario.describe().c_str(),
                o.digest.c_str());
    for (const auto& v : o.verdicts) {
      if (!v.passed) std::printf("    %s: %s\n", v.oracle.c_str(),
                                 v.detail.c_str());
    }
  }

  check(a.outcomes.size() >= 200, "campaign covers >= 200 scenarios");
  check(a.verdicts_recorded ==
            a.outcomes.size() * campaign_a.oracles().size(),
        "every scenario has a full oracle verdict set (100% recorded)");
  check(a.oracle_failures == 0, "no oracle fails anywhere in the campaign");
  check(a.survival_rate > 0.0 && a.survival_rate <= 1.0,
        "survival rate is a sane fraction");
  check(a.mttr_p50 > 0.0 && a.mttr_p95 >= a.mttr_p50,
        "MTTR p50/p95 are reported and ordered");
  check(a.digest == b.digest,
        "twin campaigns at --jobs 1 and --jobs 4 are byte-identical");

  // --- Shrinking gate: a seeded known-failure scenario. With zero spares
  // a GPU falloff irreversibly degrades the gang; the port flap and the
  // ECC storm are innocent bystanders. Against a strict "full gang"
  // oracle, ddmin must strip the bystanders and keep the one fault that
  // matters — and do so identically on a repeat run.
  std::printf("\nshrinking a seeded known-failure scenario...\n");
  const SimTime h = a.baseline.horizon;
  core::ExperimentSpec seeded;
  seeded.name = "chaos-known-failure";
  seeded.workload = ChaosCampaign::kWorkload;
  seeded.options.workload = seeded.workload;
  seeded.config = ChaosCampaign::kConfig;
  seeded.options.trainer.epochs = 1;
  seeded.options.trainer.max_iterations_per_epoch = 12;
  seeded.options.trainer.checkpoint_every_iters = 4;
  seeded.options.watchdog = 25.0 * h;
  seeded.options.faults.enabled = true;
  seeded.options.faults.seed = 7;
  seeded.options.faults.spare_gpus = 0;
  seeded.options.faults.policy.proactive_on_error_storm = false;
  seeded.options.faults.ecc_storms.push_back({1, 0.2 * h, 400});
  seeded.options.faults.gpu_falloffs.push_back({2, 0.3 * h});
  seeded.options.faults.host_port_flaps.push_back({0, 0.5 * h, 0.5});

  OracleRegistry strict;
  strict.add("chaos.full-gang", [](const OracleInput& in) {
    if (in.result == nullptr) {
      return Status::failedPrecondition("run failed outright");
    }
    if (!in.result->training.completed) {
      return Status::failedPrecondition("training did not complete");
    }
    if (in.result->recovery.degradations > 0 ||
        in.result->recovery.final_gang_size < 8) {
      return Status::failedPrecondition("gang degraded");
    }
    return Status::success();
  });
  const auto predicate =
      failsOraclePredicate(seeded, strict, "chaos.full-gang");

  const ShrinkOutcome s1 =
      shrinkFaultSchedule(seeded.options.faults, predicate);
  const ShrinkOutcome s2 =
      shrinkFaultSchedule(seeded.options.faults, predicate);
  const std::string repro1 = core::faultsConfigToJson(s1.minimal).dump(2);
  const std::string repro2 = core::faultsConfigToJson(s2.minimal).dump(2);
  std::printf("  %d faults -> %d (in %d evaluations)\n", s1.initial_faults,
              s1.minimal_faults, s1.evaluations);

  check(s1.input_failed, "seeded scenario fails the full-gang oracle");
  check(s1.minimal_faults == 1,
        "shrink isolates the single gang-degrading fault");
  check(repro1 == repro2 && s1.evaluations == s2.evaluations,
        "repeat shrink reproduces the same minimal --faults JSON");

  // The minimal reproducer must replay to the same oracle failure.
  core::ExperimentSpec replay = seeded;
  replay.options.faults = s1.minimal;
  const core::SweepRun rerun = runSingleSpec(replay);
  bool still_fails = false;
  const core::ExperimentResult* rr = rerun.status.ok ? &rerun.result : nullptr;
  OracleInput in{&replay, &rerun.status, rr};
  for (const auto& v : strict.evaluate(in)) {
    if (v.oracle == "chaos.full-gang" && !v.passed) still_fails = true;
  }
  check(still_fails, "minimal reproducer replays to the same oracle failure");

  auto doc = falcon::Json::object();
  doc.set("bench", "chaos_campaign");
  doc.set("workload", ChaosCampaign::kWorkload);
  doc.set("config", "falconGPUs");
  doc.set("deterministic", a.digest == b.digest);
  doc.set("campaign", reportToJson(a));
  auto shrink = falcon::Json::object();
  shrink.set("initial_faults", static_cast<std::int64_t>(s1.initial_faults));
  shrink.set("minimal_faults", static_cast<std::int64_t>(s1.minimal_faults));
  shrink.set("evaluations", static_cast<std::int64_t>(s1.evaluations));
  shrink.set("deterministic", repro1 == repro2);
  shrink.set("reproducer", core::faultsConfigToJson(s1.minimal));
  doc.set("shrink", std::move(shrink));
  std::ofstream out(out_path);
  out << doc.dump(2) << "\n";
  const bool wrote = out.good();
  out.close();
  check(wrote, "BENCH_chaos.json written");
  std::printf("\nreport written to %s\n", out_path.c_str());

  if (g_failures) {
    std::printf("\n%d acceptance check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall acceptance checks passed\n");
  return 0;
}
