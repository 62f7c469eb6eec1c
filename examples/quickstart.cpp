// composim quickstart: compose a system, train a benchmark, read the
// numbers.
//
// Builds the paper's test bed in the `localGPUs` configuration (8 NVLink
// V100s), fine-tunes ResNet-50 for a capped slice of one epoch, and prints
// the throughput plus the system-level metrics the paper tracks.
//
//   $ ./examples/quickstart
//   $ ./examples/quickstart --workload BERT-L
//   $ ./examples/quickstart --workload graph:examples/graphs/vit_base16.graph.json
//   $ ./examples/quickstart --trace   # also writes quickstart_trace.json
//   $ ./examples/quickstart --analyze # bottleneck attribution report
//   $ ./examples/quickstart --faults '{"spare_gpus": 1,
//       "gpu_falloffs": [{"gpu": 0, "at": 2.0}]}'
//   $ ./examples/quickstart --metrics '{"alerts":
//       ["gpu_util_pct < 10 for 5s"]}'  # writes .prom + .jsonl exports
//
// --workload selects any registered workload by name, or loads an
// operator-graph JSON file with the "graph:<path>" prefix (see DESIGN.md
// §15 and examples/graphs/). Default: ResNet-50.
//
// With --trace, the span profiler records every training phase, collective
// op, and fabric link and exports a Chrome trace_event file you can open in
// chrome://tracing or Perfetto. With --analyze, the bottleneck analyzer
// (DESIGN.md §17) decomposes every iteration into compute / exposed comm /
// overlapped comm / fabric contention / stall, prints the critical path,
// and writes quickstart_analysis.json. With --faults <spec> (inline JSON or a
// path to a JSON file), the run executes under a fault schedule with the
// recovery orchestrator active; note the fault schedule targets Falcon
// GPUs, so pair it with a Falcon-composed configuration. With --metrics
// <spec> (same inline-or-path convention; {} is valid), the run writes the
// metrics pipeline's Prometheus exposition to quickstart_metrics.prom and
// the scraped time series to quickstart_metrics.jsonl, and prints any SLO
// alerts the rules raised.
#include <cstdio>
#include <cstring>

#include "core/experiment.hpp"
#include "core/experiment_config.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main(int argc, char** argv) {
  core::ExperimentOptions opt;
  opt.workload = "ResNet-50";
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 25;
  core::SystemConfig config = core::SystemConfig::LocalGpus;
  bool export_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) opt.trace = true;
    if (std::strcmp(argv[i], "--analyze") == 0) opt.analysis = true;
    if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      opt.workload = argv[++i];
    }
    if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      if (const Status s = core::loadFaultsConfig(argv[++i], &opt.faults);
          !s) {
        std::fprintf(stderr, "faults spec error: %s\n", s.toString().c_str());
        return 1;
      }
      // Fault schedules target Falcon devices; compose the GPUs from the
      // chassis so there is something to fail and re-attach.
      config = core::SystemConfig::FalconGpus;
    }
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      if (const Status s = core::loadMetricsConfig(argv[++i], &opt.metrics);
          !s) {
        std::fprintf(stderr, "metrics spec error: %s\n", s.toString().c_str());
        return 1;
      }
      export_metrics = true;
    }
  }

  dl::ModelSpec model;
  if (const Status s =
          dl::WorkloadRegistry::instance().resolve(opt.workload, &model);
      !s) {
    std::fprintf(stderr, "--workload: %s\n", s.toString().c_str());
    return 1;
  }

  std::printf("composim quickstart: training %s (%lld params, %d layers) on "
              "the %s configuration...\n\n",
              model.name.c_str(),
              static_cast<long long>(model.totalParams()), model.layerCount(),
              core::toString(config));

  const auto result = core::Experiment::run(config, model, opt);

  std::printf("iterations simulated      : %lld\n",
              static_cast<long long>(result.training.iterations_run));
  std::printf("mean iteration time       : %s\n",
              formatTime(result.training.mean_iteration_time).c_str());
  std::printf("aggregate throughput      : %.0f samples/s\n",
              result.training.samples_per_second);
  std::printf("extrapolated 1-epoch time : %s\n",
              formatTime(result.training.extrapolated_total_time).c_str());
  std::printf("GPU utilization           : %.1f %%\n", result.gpu_util_pct);
  std::printf("GPU memory utilization    : %.1f %%\n", result.gpu_mem_util_pct);
  std::printf("CPU utilization           : %.1f %%\n", result.cpu_util_pct);
  std::printf("host memory utilization   : %.1f %%\n", result.host_mem_util_pct);
  std::printf("data-loader stall time    : %s\n",
              formatTime(result.training.data_stall_time).c_str());

  if (result.recovery.enabled) {
    std::printf("faults injected           : %llu\n",
                static_cast<unsigned long long>(result.recovery.faults_injected));
    std::printf("detections                : %llu\n",
                static_cast<unsigned long long>(result.recovery.detections));
    std::printf("recovery incidents        : %zu\n",
                result.recovery.incidents.size());
    std::printf("mean MTTR                 : %s\n",
                formatTime(result.recovery.mean_mttr).c_str());
    std::printf("iterations replayed       : %lld\n",
                static_cast<long long>(result.training.lost_iterations));
    std::printf("final gang size           : %zu\n",
                result.recovery.final_gang_size);
  }

  if (export_metrics) {
    for (const auto& [path, status] :
         {std::pair{"quickstart_metrics.prom",
                    result.metrics->writePrometheus("quickstart_metrics.prom")},
          std::pair{"quickstart_metrics.jsonl",
                    result.metrics->writeJsonl("quickstart_metrics.jsonl")}}) {
      if (!status) {
        std::fprintf(stderr, "metrics export failed: %s\n",
                     status.toString().c_str());
        return 1;
      }
      std::printf("metrics written to %s\n", path);
    }
    for (const auto& alert : result.metrics->alerts().log()) {
      std::printf("alert %-8s t=%.2fs %s on %s (value %.3g)\n",
                  alert.firing ? "FIRING" : "resolved", alert.time,
                  alert.rule.c_str(), alert.series.c_str(), alert.value);
    }
  }

  if (result.profiler) {
    const char* path = "quickstart_trace.json";
    if (const Status s = result.profiler->writeChromeTrace(path); !s) {
      std::fprintf(stderr, "trace export failed: %s\n", s.toString().c_str());
      return 1;
    }
    std::printf("\nChrome trace (%zu records) written to %s\n",
                result.profiler->recordCount(), path);
  }

  if (result.analysis) {
    std::printf("\n%s", telemetry::analysis::report(*result.analysis).c_str());
    const char* path = "quickstart_analysis.json";
    try {
      telemetry::writeFile(path,
                           toJson(*result.analysis).dump(2) + "\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "analysis export failed: %s\n", e.what());
      return 1;
    }
    std::printf("analysis written to %s\n", path);
  }
  return 0;
}
