// composim example: operating through faults.
//
// Exercises the enterprise story end to end: a training run on
// Falcon-attached GPUs suffers an error burst, a degraded link, and a
// full link flap; the BMC's health view and event log tell the operator
// what happened, and the run demonstrates which faults training survives.
//
//   $ ./examples/failure_drill
#include <cstdio>

#include "core/composable_system.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"
#include "fabric/failures.hpp"
#include "falcon/topology_view.hpp"

using namespace composim;

int main() {
  core::ComposableSystem sys(core::SystemConfig::FalconGpus);
  fabric::FaultInjector faults(sys.sim(), sys.topology(), sys.network());

  // Target: the slot link of drawer-0 GPU 1.
  const auto& victim = sys.chassis().slot({0, 1});
  std::printf("Victim device: %s\n\n", victim.device_name.c_str());

  // Fault schedule: correctable errors early, a bandwidth degrade, and a
  // short flap mid-training.
  faults.scheduleErrorBurst(victim.link_up, 0.2, 17);
  faults.scheduleDegrade(victim.link_up, 0.5, 0.8);
  faults.scheduleLinkFlap(victim.link_down, 1.0, 0.05);
  faults.scheduleRandomErrorNoise(victim.link_up, 0.2, 2.0);

  const auto model = dl::workload("ResNet-50");
  dl::TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 20;
  auto gpus = sys.trainingGpus();
  dl::Trainer trainer(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
                      sys.hostMemory(), sys.trainingStorage(), model,
                      dl::datasetFor(model), opt);
  dl::TrainingResult result;
  trainer.start([&](const dl::TrainingResult& r) { result = r; });
  sys.sim().run();

  std::printf("Training %s: %lld iterations, mean %s/iter\n",
              result.completed ? "completed" : "DID NOT COMPLETE",
              static_cast<long long>(result.iterations_run),
              formatTime(result.mean_iteration_time).c_str());
  std::printf("(The flap killed in-flight transfers; NCCL-level retry is the\n");
  std::printf(" framework's job — the simulator shows the raw fabric effect.)\n\n");

  std::printf("BMC link-health view after the drill:\n");
  for (const auto& row : sys.bmc().linkHealth()) {
    std::printf("  d%ds%d %-18s %s  errors=%llu\n", row.slot.drawer,
                row.slot.index, row.device_name.c_str(),
                row.up ? "up  " : "DOWN",
                static_cast<unsigned long long>(row.accumulated_errors));
  }
  std::printf("\nFault history (%zu records), port traffic monitor:\n\n",
              faults.history().size());
  std::printf("%s", falcon::renderPortTraffic(sys.chassis(), sys.topology()).c_str());
  return 0;
}
