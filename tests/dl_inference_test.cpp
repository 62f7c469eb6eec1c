// Tests for the inference serving engine.
#include <gtest/gtest.h>

#include "core/composable_system.hpp"
#include "dl/inference.hpp"
#include "dl/workload_registry.hpp"

namespace composim::dl {
namespace {

using core::ComposableSystem;
using core::SystemConfig;

InferenceStats serve(ComposableSystem& sys, const ModelSpec& model,
                     double rps, int requests, InferenceOptions opt = {}) {
  auto gpus = sys.trainingGpus();
  InferenceEngine engine(sys.sim(), sys.network(), *gpus.front(),
                         sys.hostMemory(), model, opt);
  InferenceStats out;
  engine.serve(rps, requests, [&](const InferenceStats& s) { out = s; });
  sys.sim().run();
  return out;
}

TEST(Inference, ServesAllRequests) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  const auto stats = serve(sys, workload("MobileNetV2"), 200.0, 100);
  EXPECT_EQ(stats.requests, 100);
  EXPECT_GT(stats.throughput_rps, 0.0);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);
}

TEST(Inference, YoloMeetsRealTimeClaim) {
  // The paper quotes YOLO at "at least 45 frames/s"; a V100 at batch 1
  // must clear that comfortably.
  ComposableSystem sys(SystemConfig::LocalGpus);
  InferenceOptions opt;
  opt.max_batch = 1;
  const auto stats = serve(sys, workload("YOLOv5-L"), 40.0, 120, opt);
  EXPECT_GT(stats.throughput_rps, 35.0);     // kept up with offered load
  EXPECT_LT(stats.latency_p99_ms, 1000.0 / 45.0 * 3.0);
}

TEST(Inference, OverloadGrowsTailLatency) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  InferenceOptions opt;
  opt.max_batch = 1;
  const auto light = serve(sys, workload("ResNet-50"), 20.0, 80, opt);
  ComposableSystem sys2(SystemConfig::LocalGpus);
  const auto heavy = serve(sys2, workload("ResNet-50"), 2000.0, 80, opt);
  EXPECT_GT(heavy.latency_p99_ms, light.latency_p99_ms * 2.0);
}

TEST(Inference, DynamicBatchingRaisesThroughput) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  InferenceOptions single;
  single.max_batch = 1;
  const auto s1 = serve(sys, workload("BERT"), 2000.0, 120, single);
  ComposableSystem sys2(SystemConfig::LocalGpus);
  InferenceOptions batched;
  batched.max_batch = 16;
  const auto s16 = serve(sys2, workload("BERT"), 2000.0, 120, batched);
  EXPECT_GT(s16.mean_batch, 1.5);
  EXPECT_GT(s16.throughput_rps, s1.throughput_rps * 1.3);
}

TEST(Inference, UnloadedLatencyIsPositiveAndModelOrdered) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  auto gpus = sys.trainingGpus();
  InferenceEngine mob(sys.sim(), sys.network(), *gpus[0], sys.hostMemory(),
                      workload("MobileNetV2"));
  InferenceEngine yolo(sys.sim(), sys.network(), *gpus[1], sys.hostMemory(),
                       workload("YOLOv5-L"));
  EXPECT_GT(mob.unloadedLatency(), 0.0);
  EXPECT_GT(yolo.unloadedLatency(), mob.unloadedLatency());
}

}  // namespace
}  // namespace composim::dl
