// composim example: real-time inference serving on a composed GPU.
//
// The paper motivates YOLO by its real-time speed ("at least 45 frames/s").
// This example serves YOLOv5-L detection requests on (a) a local V100 and
// (b) a Falcon-attached V100, at increasing request rates, and reports
// throughput and tail latency — showing that for *inference* (tiny
// gradients, no all-reduce) the composable placement is essentially free.
//
//   $ ./examples/inference_serving
#include <cstdio>

#include "core/composable_system.hpp"
#include "dl/inference.hpp"
#include "dl/workload_registry.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main() {
  const auto model = dl::workload("YOLOv5-L");
  std::printf("Serving %s detection requests (batch<=4, FP16)...\n\n",
              model.name.c_str());

  telemetry::Table t({"GPU placement", "offered rps", "achieved rps",
                      "p50 ms", "p99 ms", "mean batch"});
  for (const bool falcon : {false, true}) {
    for (const double rps : {30.0, 60.0, 120.0}) {
      core::ComposableSystem sys(falcon ? core::SystemConfig::FalconGpus
                                        : core::SystemConfig::LocalGpus);
      auto gpus = sys.trainingGpus();
      dl::InferenceOptions opt;
      opt.max_batch = 4;
      dl::InferenceEngine engine(sys.sim(), sys.network(), *gpus.front(),
                                 sys.hostMemory(), model, opt);
      dl::InferenceStats stats;
      engine.serve(rps, 300, [&](const dl::InferenceStats& s) { stats = s; });
      sys.sim().run();
      t.addRow({falcon ? "falcon-attached V100" : "local V100",
                telemetry::fmt(rps, 0), telemetry::fmt(stats.throughput_rps, 1),
                telemetry::fmt(stats.latency_p50_ms, 1),
                telemetry::fmt(stats.latency_p99_ms, 1),
                telemetry::fmt(stats.mean_batch, 2)});
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Paper's claim to check: YOLO sustains real-time (>45 fps); and\n");
  std::printf("inference placement behind the Falcon costs ~nothing (H2D is\n");
  std::printf("small and there is no gradient exchange).\n");
  return 0;
}
