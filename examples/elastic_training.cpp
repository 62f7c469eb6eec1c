// composim example: elastic training across re-compositions.
//
// The composable pitch, end to end: a ResNet-50 run starts on the host's
// 8 local GPUs; after the first epoch the operator attaches the Falcon's
// 8 GPUs and the run grows to 16 without restarting; after the next epoch
// another tenant needs the drawer back and the run shrinks to 8 again.
// Model state moves through the epoch checkpoint, exactly as a real
// resize would.
//
//   $ ./examples/elastic_training
#include <cstdio>

#include "core/composable_system.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"

using namespace composim;

int main() {
  core::ComposableSystem sys(core::SystemConfig::AllGpus16);
  auto all = sys.trainingGpus();
  std::vector<devices::Gpu*> eight(all.begin(), all.begin() + 8);

  const auto model = dl::workload("ResNet-50");
  dl::TrainerOptions opt;
  opt.epochs = 3;
  opt.max_iterations_per_epoch = 10;
  dl::Trainer trainer(sys.sim(), sys.network(), sys.topology(), eight,
                      sys.cpu(), sys.hostMemory(), sys.trainingStorage(),
                      model, dl::datasetFor(model), opt);

  std::printf("epoch 1: 8 local GPUs\n");
  trainer.requestResize(all);  // grow at the first epoch boundary

  dl::TrainingResult result;
  bool announced_grow = false;
  bool requested_shrink = false;
  trainer.start([&](const dl::TrainingResult& r) { result = r; });
  while (sys.sim().step()) {
    if (!announced_grow && trainer.groupSize() == 16) {
      announced_grow = true;
      std::printf("epoch 2: grown to 16 GPUs (8 local + 8 falcon-attached)\n");
    }
    if (announced_grow && !requested_shrink && trainer.currentEpoch() == 1) {
      requested_shrink = true;
      trainer.requestResize(eight);  // hand the drawer back after epoch 2
    }
  }
  std::printf("epoch 3: shrunk back to %zu GPUs\n\n", trainer.groupSize());

  std::printf("run %s: %lld iterations across %d re-compositions,\n",
              result.completed ? "completed" : "FAILED",
              static_cast<long long>(result.iterations_run),
              trainer.resizeCount());
  std::printf("final-composition throughput %.0f samples/s\n",
              result.samples_per_second);
  std::printf("\nNo job restart, no machine move: the fabric re-composed under\n");
  std::printf("a live training loop (paper section III-B.3, exercised).\n");
  return 0;
}
