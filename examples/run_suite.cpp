// composim example: run a JSON experiment suite.
//
// The measurement-campaign front door: a JSON file lists experiments
// (workload x configuration x trainer options); this tool runs them,
// prints a comparative table, and exports wandb-style CSV/manifest
// artifacts to an output directory.
//
//   $ ./examples/run_suite my_suite.json /tmp/results
//   $ ./examples/run_suite --trace my_suite.json /tmp/results
//   $ ./examples/run_suite --analyze --workload BERT-L
//   $ ./examples/run_suite --faults storm.json my_suite.json /tmp/results
//   $ ./examples/run_suite --metrics slo.json my_suite.json /tmp/results
//   $ ./examples/run_suite --jobs 4 my_suite.json /tmp/results
//   $ ./examples/run_suite --warm-prefix 20 my_suite.json /tmp/results
//   $ ./examples/run_suite --workload GPT-2-medium
//   $ ./examples/run_suite --workload graph:examples/graphs/vit_base16.graph.json
//   $ ./examples/run_suite            # runs a built-in demonstration suite
//
// Suite experiments name their workload with the "workload" key (legacy
// alias: "benchmark"): a dl::WorkloadRegistry name, or "graph:<path>" to
// load an operator-graph JSON file (DESIGN.md §15). --workload <ref> skips
// the suite file and runs that single workload local-vs-falcon.
//
// With --trace, every experiment runs with the span profiler enabled and a
// <name>_trace.json Chrome trace (open in chrome://tracing or Perfetto) is
// written next to the CSV artifacts. With --analyze, every experiment also
// runs the bottleneck analyzer (DESIGN.md §17): a per-run attribution
// report prints after the run, <name>_analysis.json/.txt artifacts ride
// along in the tracker export, and when at least two runs succeed the
// first two are diffed (wall-time delta attributed to buckets and spans —
// pair it with --workload for the paper's local-vs-falcon comparison). With --faults <spec> (inline JSON or
// a file path), every experiment runs under that fault schedule with the
// recovery orchestrator active; individual experiments can instead carry
// their own "faults" object in the suite file. With --metrics <spec>
// (scrape interval + alert rules; {} is valid), every experiment exports
// its Prometheus exposition (<name>_metrics.prom) and JSONL time-series
// dump (<name>_metrics.jsonl) next to the CSV artifacts; per-experiment
// "metrics" objects in the suite file take precedence.
//
// --jobs N fans the suite out across N worker threads (default:
// hardware_concurrency). Each run owns a private simulation stack and all
// output — per-run log lines, trace files, tracker rows — is buffered and
// emitted on the main thread in suite order, so serial and parallel
// invocations produce byte-identical artifacts and stdout.
//
// --warm-prefix N pauses every experiment after its first N training
// iterations; experiments that share everything but their tail length
// (epochs / iterations_cap) then execute that prefix once and fork from a
// snapshot (DESIGN.md §14), with byte-identical artifacts. Experiments
// where the boundary is inapplicable (N at or past an epoch or checkpoint
// boundary) run continuously as before; faulted experiments fork too, as
// long as every injection lands strictly after the boundary (earlier
// injections fall back to cold runs automatically). Individual
// experiments can instead carry their own "warm_prefix" key in the suite
// file; the flag overrides only specs that left it unset.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment_config.hpp"
#include "core/sweep_runner.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/report.hpp"
#include "telemetry/run_tracker.hpp"

using namespace composim;

namespace {

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr,
               "run_suite: %s\nusage: run_suite [--trace] [--analyze] "
               "[--jobs N] [--warm-prefix N] [--faults SPEC] [--metrics SPEC] "
               "[--workload REF] [suite.json] [outdir]\n",
               message.c_str());
  std::exit(2);
}

/// The value after count flag argv[i] (advancing i past it). A missing,
/// non-integer or negative value is a usage error, never a silent default.
template <typename T>
T countFlag(int argc, char** argv, int& i, const char* what) {
  const std::string flag = argv[i];
  if (i + 1 == argc) usageError(flag + " needs " + what);
  const std::string_view value(argv[++i]);
  T n = -1;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), n);
  if (ec != std::errc{} || end != value.data() + value.size() || n < 0) {
    usageError(flag + " '" + std::string(value) + "' is not " + what);
  }
  return n;
}

const char* kDemoSuite = R"({
  "suite": "pcie-overhead-demo",
  "experiments": [
    {"name": "resnet-local",  "workload": "ResNet-50", "config": "localGPUs",
     "epochs": 1, "iterations_cap": 10},
    {"name": "resnet-falcon", "workload": "ResNet-50", "config": "falconGPUs",
     "epochs": 1, "iterations_cap": 10},
    {"name": "bertL-local",   "workload": "BERT-L", "config": "localGPUs",
     "epochs": 1, "iterations_cap": 10},
    {"name": "bertL-falcon",  "workload": "BERT-L", "config": "falconGPUs",
     "epochs": 1, "iterations_cap": 10}
  ]
})";

/// The --workload suite: the referenced workload on localGPUs vs
/// falconGPUs, the paper's core A/B comparison.
std::vector<core::ExperimentSpec> workloadSuite(const std::string& ref) {
  std::vector<core::ExperimentSpec> specs;
  for (const auto config :
       {core::SystemConfig::LocalGpus, core::SystemConfig::FalconGpus}) {
    core::ExperimentSpec s;
    s.name = std::string(config == core::SystemConfig::LocalGpus
                             ? "workload-local"
                             : "workload-falcon");
    s.workload = ref;
    s.options.workload = ref;
    s.config = config;
    s.options.trainer.epochs = 1;
    s.options.trainer.max_iterations_per_epoch = 10;
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  bool trace = false;
  bool analyze = false;
  int jobs = 0;  // 0 = hardware_concurrency
  long warm_prefix = 0;  // 0 = run every experiment continuously
  std::string faults_spec;
  std::string metrics_spec;
  std::string workload_ref;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace") {
      trace = true;
    } else if (std::string(argv[i]) == "--analyze") {
      analyze = true;
    } else if (std::string(argv[i]) == "--faults" && i + 1 < argc) {
      faults_spec = argv[++i];
    } else if (std::string(argv[i]) == "--metrics" && i + 1 < argc) {
      metrics_spec = argv[++i];
    } else if (std::string(argv[i]) == "--workload" && i + 1 < argc) {
      workload_ref = argv[++i];
    } else if (std::string(argv[i]) == "--jobs") {
      jobs = countFlag<int>(argc, argv, i, "a worker count (0 = auto)");
    } else if (std::string(argv[i]) == "--warm-prefix") {
      warm_prefix =
          countFlag<long>(argc, argv, i, "an iteration count (0 = off)");
    } else {
      pos.push_back(argv[i]);
    }
  }

  // Shared specs: inline JSON (starts with '{') or a path to a JSON file.
  core::FaultsConfig shared_faults;
  if (!faults_spec.empty()) {
    // The faults loader lists the valid fault kinds on bad input, so a
    // typo'd reproducer tells the operator how to fix itself.
    const Status st = core::loadFaultsConfig(faults_spec, &shared_faults);
    if (!st.ok) {
      std::fprintf(stderr, "faults spec error: %s\n", st.toString().c_str());
      return 1;
    }
  }

  core::MetricsConfig shared_metrics;
  bool export_metrics = false;
  if (!metrics_spec.empty()) {
    const Status st = core::loadMetricsConfig(metrics_spec, &shared_metrics);
    if (!st.ok) {
      std::fprintf(stderr, "metrics spec error: %s\n", st.toString().c_str());
      return 1;
    }
    export_metrics = true;
  }

  std::vector<core::ExperimentSpec> specs;
  if (!workload_ref.empty()) {
    // Validate up front so a typo'd name or bad graph file fails with the
    // registry's error (known names / loader diagnostics) before any run.
    dl::ModelSpec probe;
    if (const Status s =
            dl::WorkloadRegistry::instance().resolve(workload_ref, &probe);
        !s) {
      std::fprintf(stderr, "--workload: %s\n", s.toString().c_str());
      return 1;
    }
    specs = workloadSuite(workload_ref);
  } else {
    const std::string suite = pos.empty() ? kDemoSuite : pos[0];
    if (const Status st = core::loadExperimentSuite(suite, &specs); !st) {
      std::fprintf(stderr, "suite error: %s\n", st.toString().c_str());
      return 1;
    }
  }

  // Positionals are [suite.json] [outdir]; --workload replaces the suite
  // file, so its first positional (if any) is the output directory.
  const std::string outdir = pos.size() > 1  ? pos[1]
                             : !workload_ref.empty() && !pos.empty() ? pos[0]
                                                                     : ".";
  if (outdir != "." || trace || export_metrics || analyze) {
    std::filesystem::create_directories(outdir);
  }

  for (auto& spec : specs) {
    if (trace) spec.options.trace = true;
    if (analyze) spec.options.analysis = true;
    if (warm_prefix > 0 && spec.options.warm_prefix == 0) {
      spec.options.warm_prefix = warm_prefix;
    }
    if (shared_faults.enabled && !spec.options.faults.enabled) {
      spec.options.faults = shared_faults;
    }
    // Per-experiment "metrics" objects win over the shared --metrics spec.
    if (export_metrics && spec.options.metrics.alerts.empty() &&
        spec.options.metrics.scrape_interval == 0.0) {
      spec.options.metrics = shared_metrics;
    }
  }

  telemetry::RunTracker tracker;
  telemetry::Table table({"Run", "Workload", "Config", "iter time",
                          "samples/s", "GPU util %"});
  bool any_failed = false;
  // Successful analyses in suite order; the first two feed the run diff.
  std::vector<std::shared_ptr<telemetry::analysis::RunAnalysis>> analyses;
  // Workers only simulate; every emission below — log lines, trace-file
  // writes, tracker rows — happens here on the main thread, in suite
  // order, as each run's prefix completes. Serial (--jobs 1) and parallel
  // invocations therefore produce byte-identical output.
  core::SweepRunner runner({jobs});
  runner.run(std::move(specs), [&](const core::SweepRun& done) {
    const core::ExperimentSpec& spec = done.spec;
    std::printf("running '%s' (%s on %s)...\n", spec.name.c_str(),
                spec.workload.c_str(), core::toString(spec.config));
    if (!done.status) {
      std::fprintf(stderr, "  run failed: %s\n", done.status.toString().c_str());
      any_failed = true;
      return;
    }
    const core::ExperimentResult& r = done.result;
    if (r.profiler) {
      const std::string path = outdir + "/" + spec.name + "_trace.json";
      if (const Status s = r.profiler->writeChromeTrace(path); !s) {
        std::fprintf(stderr, "trace export failed: %s\n", s.toString().c_str());
      } else {
        std::printf("  trace written to %s\n", path.c_str());
      }
    }
    if (export_metrics) {
      const std::string prom = outdir + "/" + spec.name + "_metrics.prom";
      const std::string jsonl = outdir + "/" + spec.name + "_metrics.jsonl";
      Status s = r.metrics->writePrometheus(prom);
      if (s) s = r.metrics->writeJsonl(jsonl);
      if (!s) {
        std::fprintf(stderr, "metrics export failed: %s\n",
                     s.toString().c_str());
      } else {
        std::printf("  metrics written to %s / %s\n", prom.c_str(),
                    jsonl.c_str());
      }
      for (const auto& alert : r.metrics->alerts().log()) {
        std::printf("  alert %-8s t=%.2fs %s on %s\n",
                    alert.firing ? "FIRING" : "resolved", alert.time,
                    alert.rule.c_str(), alert.series.c_str());
      }
    }
    auto& run = tracker.run(spec.name);
    run.setConfig("workload", spec.workload);
    run.setConfig("config", core::toString(spec.config));
    if (r.analysis) {
      // Re-label with the suite name so reports and diffs name the run,
      // not the model.
      r.analysis->name = spec.name;
      std::printf("%s", telemetry::analysis::report(*r.analysis).c_str());
      run.addArtifact("analysis.json",
                      toJson(*r.analysis).dump(2) + "\n");
      run.addArtifact("analysis.txt", telemetry::analysis::report(*r.analysis));
      run.setSummary("compute_s_mean", r.analysis->mean.compute);
      run.setSummary("exposed_comm_s_mean", r.analysis->mean.exposed_comm);
      run.setSummary("fabric_contention_s_mean",
                     r.analysis->mean.fabric_contention);
      run.setSummary("stall_s_mean", r.analysis->mean.stall);
      run.setSummary("critical_path_coverage_pct", r.analysis->coverage_pct);
      analyses.push_back(r.analysis);
    }
    run.setSummary("mean_iteration_s", r.training.mean_iteration_time);
    run.setSummary("samples_per_second", r.training.samples_per_second);
    run.setSummary("gpu_util_pct", r.gpu_util_pct);
    run.setSummary("falcon_pcie_gbs", r.falcon_pcie_gbs);
    if (r.recovery.enabled) {
      run.setSummary("faults_injected",
                     static_cast<double>(r.recovery.faults_injected));
      run.setSummary("mean_mttr_s", r.recovery.mean_mttr);
      run.setSummary("lost_iterations",
                     static_cast<double>(r.training.lost_iterations));
      run.setSummary("final_gang_size",
                     static_cast<double>(r.recovery.final_gang_size));
    }
    const auto& util = r.metrics->series("gpu_util_pct");
    for (std::size_t i = 0; i < util.size(); ++i) {
      run.log("gpu_util_pct", util.timeAt(i), util.valueAt(i));
    }
    table.addRow({spec.name, spec.workload, core::toString(spec.config),
                  formatTime(r.training.mean_iteration_time),
                  telemetry::fmt(r.training.samples_per_second, 0),
                  telemetry::fmt(r.gpu_util_pct, 1)});
  });
  std::printf("\n%s", table.render().c_str());

  if (analyses.size() >= 2) {
    const telemetry::analysis::RunDiff diff =
        telemetry::analysis::diffRuns(*analyses[0], *analyses[1]);
    std::printf("\n%s", telemetry::analysis::report(diff).c_str());
    if (analyze) {
      const std::string path = outdir + "/analysis_diff.json";
      try {
        telemetry::writeFile(path, toJson(diff).dump(2) + "\n");
        std::printf("run diff written to %s\n", path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "diff export failed: %s\n", e.what());
      }
    }
  }

  if (outdir != "." || analyze) {
    tracker.exportTo(outdir);
    std::printf("\nartifacts written to %s (manifest.json + per-metric CSVs)\n",
                outdir.c_str());
  }
  return any_failed ? 1 : 0;
}
