// Reproduces Fig 14: host system-memory utilization per benchmark and GPU
// configuration.
//
// Paper shape: the benchmarks do not stress the 756 GB hosts; vision
// workloads sit slightly higher (input staging buffers), and the
// configuration makes no meaningful difference.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main(int argc, char** argv) {
  bench::banner("Fig 14", "System Memory Utilization of the DL Benchmarks");

  const auto models = dl::WorkloadRegistry::instance().paperZoo();
  const auto configs = core::gpuConfigs();
  const auto results =
      bench::figureMatrix(bench::jobsFromArgs(argc, argv), models, configs);

  telemetry::Table t({"Benchmark", "localGPUs %", "hybridGPUs %", "falconGPUs %"});
  for (std::size_t m = 0; m < models.size(); ++m) {
    std::vector<std::string> row{models[m].name};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      row.push_back(
          telemetry::fmt(results[m * configs.size() + c].host_mem_util_pct, 2));
    }
    t.addRow(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Paper shape: single-digit utilization of the 756 GB hosts; vision\n");
  std::printf("slightly above NLP (batch staging); insensitive to configuration.\n");
  return 0;
}
