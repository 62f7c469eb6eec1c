// composim example: sweep every Table III configuration for a chosen
// benchmark and print a comparative report — the core co-design loop the
// paper's composable test bed exists for ("determine the optimal
// configuration prior to final commitment of system build", §IV).
//
//   $ ./examples/config_sweep            # BERT-large (the stress case)
//   $ ./examples/config_sweep ResNet-50  # any Table II benchmark name
//   $ ./examples/config_sweep --jobs 4 BERT-L
//
// The five configurations are independent runs, so they fan out across
// --jobs worker threads (default: hardware_concurrency); the report is
// assembled on the main thread in configuration order and is byte-
// identical at any job count.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.hpp"
#include "core/recommender.hpp"
#include "core/sweep_runner.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = hardware_concurrency
  std::string wanted = "BERT-L";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else {
      wanted = argv[i];
    }
  }
  dl::ModelSpec model;
  bool found = false;
  for (const auto& m : dl::WorkloadRegistry::instance().paperZoo()) {
    if (m.name == wanted) {
      model = m;
      found = true;
      break;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown benchmark '%s'; options:\n", wanted.c_str());
    for (const auto& m : dl::WorkloadRegistry::instance().paperZoo()) {
      std::fprintf(stderr, "  %s\n", m.name.c_str());
    }
    return 1;
  }

  std::printf("Sweeping all five host configurations for %s...\n\n",
              model.name.c_str());

  const auto configs = core::allConfigs();
  const auto results = core::sweepOrdered(
      jobs, configs.size(), [&configs, &model](std::size_t i) {
        core::ExperimentOptions opt;
        return core::Experiment::run(configs[i], model, opt);
      });

  core::Recommender recommender;
  telemetry::Table t({"Configuration", "mean iter", "samples/s", "GPU util %",
                      "falcon PCIe GB/s", "extrapolated total"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& r = results[i];
    recommender.addRun(r, model);
    t.addRow({core::toString(configs[i]),
              formatTime(r.training.mean_iteration_time),
              telemetry::fmt(r.training.samples_per_second, 0),
              telemetry::fmt(r.gpu_util_pct, 1),
              telemetry::fmt(r.falcon_pcie_gbs, 2),
              formatTime(r.training.extrapolated_total_time)});
  }
  std::printf("%s\n", t.render().c_str());

  if (auto rec = recommender.recommendFor(model.name)) {
    std::printf("Recommended configuration : %s (expected %s)\n",
                core::toString(rec->config),
                formatTime(rec->expected_time_seconds).c_str());
    std::printf("Composability overhead    : %.1f %% (best Falcon-involving\n"
                "                            configuration vs best overall)\n",
                rec->composability_overhead_pct);
  }
  return 0;
}
