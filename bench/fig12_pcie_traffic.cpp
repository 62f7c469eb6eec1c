// Reproduces Fig 12: PCIe data transfer rate (GB/s) through the
// Falcon-GPU slot links (ingress + egress, aggregated over the attached
// GPUs) for the hybridGPUs and falconGPUs configurations.
//
// Paper reference values (falconGPUs): MobileNetV2 ~4 GB/s, ResNet-50
// 11.31 GB/s, BERT-large 76.43 GB/s (19x MobileNet, ~7x ResNet); traffic
// grows with model size, and hybrid moves less than falcon.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main(int argc, char** argv) {
  bench::banner("Fig 12", "PCIe Data Transfer Rate for Falcon-attached GPUs");

  const auto models = dl::WorkloadRegistry::instance().paperZoo();
  const std::vector<core::SystemConfig> configs = {
      core::SystemConfig::HybridGpus, core::SystemConfig::FalconGpus};
  const auto results =
      bench::figureMatrix(bench::jobsFromArgs(argc, argv), models, configs);

  telemetry::Table t({"Benchmark", "hybridGPUs GB/s", "falconGPUs GB/s"});
  std::vector<std::pair<std::string, double>> bars;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const auto& hybrid = results[m * 2];
    const auto& falcon = results[m * 2 + 1];
    t.addRow({models[m].name, telemetry::fmt(hybrid.falcon_pcie_gbs),
              telemetry::fmt(falcon.falcon_pcie_gbs)});
    bars.emplace_back(models[m].name + " falcon", falcon.falcon_pcie_gbs);
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n", telemetry::barChart(bars, "GB/s").c_str());
  std::printf("Paper reference (falconGPUs): MobileNetV2 ~4, ResNet-50 11.31,\n");
  std::printf("BERT-large 76.43 GB/s.\n");
  return 0;
}
