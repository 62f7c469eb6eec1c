// Extension study (paper §V-A notes the test bed also holds P100 GPUs;
// §VI plans "incorporating other accelerators"): data-parallel training
// over a *heterogeneous* composed pool — 4 local V100-SXM2 plus 4
// Falcon-attached P100s — versus 8 V100s and 4 V100s alone.
//
// Expected shape: synchronous data parallelism runs at the pace of the
// slowest replica, so the mixed pool lands far below 8xV100 and only
// modestly above 4xV100 — the quantitative argument for why composability
// (swap the P100s out!) beats static provisioning.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/composable_system.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"
#include "telemetry/report.hpp"

using namespace composim;

namespace {

/// Build a custom system: the standard host plus a Falcon drawer holding
/// P100s instead of V100s, using the library's raw primitives.
struct HeteroTestbed {
  core::ComposableSystem sys{core::SystemConfig::LocalGpus};
  std::vector<std::unique_ptr<devices::Gpu>> p100s;

  HeteroTestbed() {
    auto& topo = sys.topology();
    auto& chassis = sys.chassis();
    chassis.setDrawerMode(0, falcon::DrawerMode::Advanced);
    for (int s = 4; s < 8; ++s) {  // slots 0-3 hold the stock V100s
      const std::string name = "gpu.p100.d0s" + std::to_string(s);
      const fabric::NodeId node = topo.addNode(name, fabric::NodeKind::Gpu);
      chassis.installDevice({0, s}, falcon::DeviceType::Gpu, name, node);
      chassis.attach({0, s}, 0);
      p100s.push_back(std::make_unique<devices::Gpu>(
          sys.sim(), node, devices::specs::p100_pcie(), name));
    }
  }
};

double throughput(core::ComposableSystem& sys, std::vector<devices::Gpu*> gpus,
                  const dl::ModelSpec& model) {
  dl::TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 8;
  dl::Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
                sys.hostMemory(), sys.trainingStorage(), model,
                dl::datasetFor(model), opt);
  dl::TrainingResult r;
  t.start([&](const dl::TrainingResult& rr) { r = rr; });
  sys.sim().run();
  return r.samples_per_second;
}

}  // namespace

int main(int argc, char** argv) {
  const int jobs = bench::jobsFromArgs(argc, argv);
  bench::banner("Heterogeneous pool",
                "4x V100 + 4x composed P100 vs homogeneous pools (ResNet-50)");

  const auto model = dl::workload("ResNet-50");

  // Three independent testbeds: each lambda builds its own system so the
  // pools can be measured on worker threads.
  const auto sps = core::sweepOrdered(
      jobs, 3, [&model](std::size_t i) {
        if (i == 0) {
          core::ComposableSystem homo8(core::SystemConfig::LocalGpus);
          return throughput(homo8, homo8.trainingGpus(), model);
        }
        if (i == 1) {
          core::ComposableSystem homo4(core::SystemConfig::LocalGpus);
          auto four = homo4.trainingGpus();
          four.resize(4);
          return throughput(homo4, four, model);
        }
        HeteroTestbed hetero;
        auto mixed = hetero.sys.trainingGpus();
        mixed.resize(4);
        for (auto& p : hetero.p100s) mixed.push_back(p.get());
        return throughput(hetero.sys, mixed, model);
      });
  const double v100x8 = sps[0];
  const double v100x4 = sps[1];
  const double mixedSps = sps[2];

  telemetry::Table t({"Pool", "samples/s", "vs 8x V100 %"});
  t.addRow({"8x V100 (local)", telemetry::fmt(v100x8, 0), "100.0"});
  t.addRow({"4x V100 + 4x P100 (composed)", telemetry::fmt(mixedSps, 0),
            telemetry::fmt(100.0 * mixedSps / v100x8, 1)});
  t.addRow({"4x V100 (local)", telemetry::fmt(v100x4, 0),
            telemetry::fmt(100.0 * v100x4 / v100x8, 1)});
  std::printf("%s\n", t.render().c_str());
  std::printf("Shape: synchronous DDP paces at the slowest replica — the P100s\n");
  std::printf("drag the mixed pool toward 8x-P100 speed. The composable answer:\n");
  std::printf("detach them and re-compose, no screwdriver required.\n");
  return 0;
}
