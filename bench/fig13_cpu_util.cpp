// Reproduces Fig 13: host CPU utilization per benchmark and GPU
// configuration.
//
// Paper shape: nothing stresses the CPU cores (far from saturation);
// vision benchmarks use visibly more CPU than the NLP ones because of
// data preprocessing (decode, crop, resize, normalize — YOLOv5's mosaic
// on top); the configuration barely matters.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main(int argc, char** argv) {
  bench::banner("Fig 13", "CPU Utilization of the DL Benchmarks");

  const auto models = dl::WorkloadRegistry::instance().paperZoo();
  const auto configs = core::gpuConfigs();
  const auto results =
      bench::figureMatrix(bench::jobsFromArgs(argc, argv), models, configs);

  telemetry::Table t({"Benchmark", "localGPUs %", "hybridGPUs %", "falconGPUs %"});
  std::vector<std::pair<std::string, double>> bars;
  for (std::size_t m = 0; m < models.size(); ++m) {
    std::vector<std::string> row{models[m].name};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto& r = results[m * configs.size() + c];
      row.push_back(telemetry::fmt(r.cpu_util_pct, 1));
      if (configs[c] == core::SystemConfig::LocalGpus) {
        bars.emplace_back(models[m].name, r.cpu_util_pct);
      }
    }
    t.addRow(std::move(row));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n", telemetry::barChart(bars, "% (localGPUs)").c_str());
  std::printf("Paper shape: vision >> NLP (preprocessing on CPU); all far from\n");
  std::printf("saturating the 2x Xeon 6148 (80 hardware threads).\n");
  return 0;
}
