// Reproduces Fig 10: GPU utilization, GPU memory utilization, and the
// percentage of time spent accessing GPU memory, for every benchmark on
// the three GPU-placement configurations.
//
// Paper shape: behaviour similar across configurations; utilization
// slightly *higher* on Falcon configurations (NCCL kernels running on the
// slower fabric count as busy time) while memory-access share is lower,
// especially for BERT; all benchmarks > 80% utilization; BERT models are
// the heaviest GPU-memory users.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main(int argc, char** argv) {
  bench::banner("Fig 10", "GPU Performance on the Composable Configurations");

  const auto models = dl::WorkloadRegistry::instance().paperZoo();
  const auto configs = core::gpuConfigs();
  const auto results =
      bench::figureMatrix(bench::jobsFromArgs(argc, argv), models, configs);

  telemetry::Table t({"Benchmark", "Config", "GPU util %", "GPU mem util %",
                      "Mem access %"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto& r = results[m * configs.size() + c];
      t.addRow({models[m].name, core::toString(configs[c]),
                telemetry::fmt(r.gpu_util_pct, 1),
                telemetry::fmt(r.gpu_mem_util_pct, 1),
                telemetry::fmt(r.gpu_mem_access_pct, 1)});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nPaper shape: all > 80%% GPU util; falcon configs slightly higher\n");
  std::printf("util and lower mem-access share; BERT highest memory pressure.\n");
  return 0;
}
