// Reproduces Fig 11: percentage change of training time from the
// localGPUs configuration, for every benchmark on hybridGPUs and
// falconGPUs.
//
// Paper shape to reproduce:
//   * MobileNetV2 / ResNet-50: < 5% slower on Falcon configurations.
//   * All vision workloads: < 7% slower when the Falcon is involved.
//   * BERT-base: noticeable PCIe-switching overhead.
//   * BERT-large: ~2x the localGPUs training time on falconGPUs
//     (340M parameters; gradient all-reduce saturates the PCIe fabric).
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main(int argc, char** argv) {
  bench::banner("Fig 11", "Percentage Change of Training Time vs localGPUs");

  const auto models = dl::WorkloadRegistry::instance().paperZoo();
  const std::vector<core::SystemConfig> configs = {
      core::SystemConfig::LocalGpus, core::SystemConfig::HybridGpus,
      core::SystemConfig::FalconGpus};
  const auto results = bench::experimentMatrix(
      bench::jobsFromArgs(argc, argv), models, configs, core::ExperimentOptions{});

  telemetry::Table t({"Benchmark", "localGPUs (s, extrapolated)",
                      "hybridGPUs %", "falconGPUs %"});
  std::vector<std::pair<std::string, double>> bars;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& base = results[m * 3];
    const auto& hybrid = results[m * 3 + 1];
    const auto& falcon = results[m * 3 + 2];

    const double dh = core::Experiment::trainingTimeChangePct(hybrid, base);
    const double df = core::Experiment::trainingTimeChangePct(falcon, base);
    t.addRow({models[m].name,
              telemetry::fmt(base.training.extrapolated_total_time, 1),
              telemetry::fmt(dh, 2), telemetry::fmt(df, 2)});
    bars.emplace_back(models[m].name + " hybrid", dh);
    bars.emplace_back(models[m].name + " falcon", df);
  }

  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n", telemetry::barChart(bars, "%").c_str());
  std::printf("Paper shape: vision < 7%% (MobileNet/ResNet < 5%%); BERT-large ~2x\n");
  std::printf("on falconGPUs; overhead grows with parameter count.\n");
  return 0;
}
