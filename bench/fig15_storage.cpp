// Reproduces Fig 15: percentage change of training time from the
// localGPUs configuration when the dataset moves to a local NVMe or a
// Falcon-attached NVMe (all three configurations train on the 8 local
// GPUs; only the storage path differs).
//
// Paper shape: "attaching NVMe storage provides additional acceleration
// for large models such as BERT and Yolo as it improves the data loading
// speed. The overhead of PCI-e switching through the falcon is small" —
// i.e. negative bars for YOLO/BERT, ~zero for the small cached vision
// models, and falconNVMe ~= localNVMe.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main() {
  bench::banner("Fig 15", "Training-Time Change vs localGPUs (storage study)");

  telemetry::Table t({"Benchmark", "localGPUs (s)", "localNVMe %", "falconNVMe %"});
  std::vector<std::pair<std::string, double>> bars;
  for (const auto& model : dl::WorkloadRegistry::instance().paperZoo()) {
    core::ExperimentOptions opt;
    opt.trainer.max_iterations_per_epoch = 15;
    const auto base = core::Experiment::run(core::SystemConfig::LocalGpus, model, opt);
    const auto local = core::Experiment::run(core::SystemConfig::LocalNvme, model, opt);
    const auto falcon = core::Experiment::run(core::SystemConfig::FalconNvme, model, opt);
    const double dl_ = core::Experiment::trainingTimeChangePct(local, base);
    const double df = core::Experiment::trainingTimeChangePct(falcon, base);
    t.addRow({model.name,
              telemetry::fmt(base.training.extrapolated_total_time, 1),
              telemetry::fmt(dl_, 2), telemetry::fmt(df, 2)});
    bars.emplace_back(model.name + " localNVMe", dl_);
    bars.emplace_back(model.name + " falconNVMe", df);
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("%s\n", telemetry::barChart(bars, "%").c_str());
  std::printf("Paper shape: NVMe accelerates the data-hungry models (YOLO's\n");
  std::printf("mosaic reads, BERT's checkpoints); falconNVMe ~= localNVMe.\n");
  return 0;
}
