// Tests for the core extensions: the 16-GPU composition, the second
// tenant host, gradient accumulation and JSON experiment suites.
#include <gtest/gtest.h>

#include "core/experiment_config.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"

namespace composim::core {
namespace {

TEST(AllGpus16, ComposesSixteenGpus) {
  ComposableSystem sys(SystemConfig::AllGpus16);
  const auto gpus = sys.trainingGpus();
  ASSERT_EQ(gpus.size(), 16u);
  EXPECT_EQ(trainingGpuCount(SystemConfig::AllGpus16), 16u);
  EXPECT_EQ(sys.trainingStorage().name(), "nvme.local");
  // All 8 falcon GPUs attached across both drawers.
  EXPECT_EQ(sys.chassis().devicesAssignedTo(0).size(), 4u);
  EXPECT_EQ(sys.chassis().devicesAssignedTo(2).size(), 4u);
}

TEST(AllGpus16, SixteenGpuTrainingScalesThroughput) {
  // The capability argument: 16 composed GPUs beat the fixed 8-GPU server
  // on throughput for a compute-bound model, despite the PCIe fabric.
  auto run = [](SystemConfig cfg) {
    ComposableSystem sys(cfg);
    auto gpus = sys.trainingGpus();
    dl::TrainerOptions opt;
    opt.epochs = 1;
    opt.max_iterations_per_epoch = 6;
    const auto model = dl::workload("ResNet-50");
    dl::Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
                  sys.hostMemory(), sys.trainingStorage(), model,
                  dl::datasetFor(model), opt);
    dl::TrainingResult r;
    t.start([&](const dl::TrainingResult& rr) { r = rr; });
    sys.sim().run();
    EXPECT_TRUE(r.completed);
    return r.samples_per_second;
  };
  const double sps8 = run(SystemConfig::LocalNvme);
  const double sps16 = run(SystemConfig::AllGpus16);
  EXPECT_GT(sps16, sps8 * 1.5);
  EXPECT_LT(sps16, sps8 * 2.05);
}

TEST(SecondHost, AttachesOnceAndEnablesCoTenancy) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  const auto h2 = sys.attachSecondHost();
  ASSERT_NE(h2.root, fabric::kInvalidNode);
  ASSERT_NE(h2.cpu, nullptr);
  // Idempotent.
  const auto again = sys.attachSecondHost();
  EXPECT_EQ(again.root, h2.root);
  // The second tenant can reach falcon devices through its own ports.
  EXPECT_TRUE(sys.chassis().hostPort(1).connected);
  EXPECT_TRUE(sys.chassis().hostPort(3).connected);
  const auto gpuNode = sys.falconGpus()[0]->node();
  auto route = sys.topology().route(h2.root, gpuNode);
  ASSERT_TRUE(route.has_value());
}

TEST(SecondHost, TenantsGetDisjointFabricPaths) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  const auto h2 = sys.attachSecondHost();
  auto r1 = sys.topology().route(sys.hostRoot(), sys.chassis().drawerSwitch(0));
  auto r2 = sys.topology().route(h2.root, sys.chassis().drawerSwitch(0));
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_NE(r1->links[0], r2->links[0]);  // separate host adapters
}

TEST(GradientAccumulation, MultipliesEffectiveBatch) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  auto gpus = sys.trainingGpus();
  const auto model = dl::workload("BERT-L");
  dl::TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 4;
  opt.gradient_accumulation_steps = 4;
  dl::Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
                sys.hostMemory(), sys.trainingStorage(), model,
                dl::datasetFor(model), opt);
  // Accumulation shrinks the number of optimizer iterations per epoch
  // (up to ceil rounding at the epoch tail).
  dl::TrainerOptions plain = opt;
  plain.gradient_accumulation_steps = 1;
  dl::Trainer tp(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
                 sys.hostMemory(), sys.trainingStorage(), model,
                 dl::datasetFor(model), plain);
  const double ratio = static_cast<double>(tp.iterationsPerEpochFull()) /
                       static_cast<double>(t.iterationsPerEpochFull());
  EXPECT_NEAR(ratio, 4.0, 0.05);
}

TEST(GradientAccumulation, IterationCostsSubLinearInMicroSteps) {
  auto iterTime = [](int accum) {
    ComposableSystem sys(SystemConfig::LocalGpus);
    auto gpus = sys.trainingGpus();
    const auto model = dl::workload("ResNet-50");
    dl::TrainerOptions opt;
    opt.epochs = 1;
    opt.max_iterations_per_epoch = 4;
    opt.gradient_accumulation_steps = accum;
    dl::Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
                  sys.hostMemory(), sys.trainingStorage(), model,
                  dl::datasetFor(model), opt);
    dl::TrainingResult r;
    t.start([&](const dl::TrainingResult& rr) { r = rr; });
    sys.sim().run();
    EXPECT_TRUE(r.completed);
    return r.mean_iteration_time;
  };
  const double t1 = iterTime(1);
  const double t3 = iterTime(3);
  // Three micro-steps of compute, but optimizer/step-overhead/all-reduce
  // paid once: cost grows with K yet stays below K times one iteration —
  // the throughput argument for accumulation.
  EXPECT_GT(t3 / t1, 2.0);
  EXPECT_LT(t3 / t1, 3.05);
}

TEST(ExperimentConfig, ParsesFullSuite) {
  const auto doc = falcon::Json::parse(R"({
    "suite": "demo",
    "experiments": [
      {"name": "a", "benchmark": "ResNet-50", "config": "localGPUs"},
      {"name": "b", "benchmark": "BERT-L", "config": "falconGPUs",
       "epochs": 1, "iterations_cap": 5, "batch_per_gpu": 4,
       "strategy": "dp", "precision": "fp32", "sharded": true,
       "accumulation": 2, "sample_interval": 0.5}
    ]
  })");
  const auto specs = parseExperimentSuite(doc);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].workload, "ResNet-50");
  EXPECT_EQ(specs[0].config, SystemConfig::LocalGpus);
  EXPECT_EQ(specs[1].config, SystemConfig::FalconGpus);
  EXPECT_EQ(specs[1].options.trainer.epochs, 1);
  EXPECT_EQ(specs[1].options.trainer.max_iterations_per_epoch, 5);
  EXPECT_EQ(specs[1].options.trainer.batch_per_gpu, 4);
  EXPECT_EQ(specs[1].options.trainer.strategy, dl::Strategy::DataParallel);
  EXPECT_EQ(specs[1].options.trainer.precision, devices::Precision::FP32);
  EXPECT_TRUE(specs[1].options.trainer.sharded);
  EXPECT_EQ(specs[1].options.trainer.gradient_accumulation_steps, 2);
  EXPECT_DOUBLE_EQ(specs[1].options.sample_interval, 0.5);
}

TEST(ExperimentConfig, RejectsUnknownValues) {
  auto parse = [](const char* text) {
    return parseExperimentSuite(falcon::Json::parse(text));
  };
  EXPECT_THROW(parse(R"({"experiments":[{"name":"x","benchmark":"nope","config":"localGPUs"}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"experiments":[{"name":"x","benchmark":"BERT","config":"nope"}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"experiments":[{"name":"x","benchmark":"BERT","config":"localGPUs","strategy":"zz"}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"nope": 1})"), falcon::JsonError);
}

TEST(ExperimentConfig, NameResolutionCoversAllConfigs) {
  for (const auto c : allConfigs()) {
    EXPECT_EQ(configFromName(toString(c)), c);
  }
  EXPECT_EQ(configFromName("allGPUs16"), SystemConfig::AllGpus16);
  for (const auto& m : dl::WorkloadRegistry::instance().paperZoo()) {
    EXPECT_EQ(dl::workload(m.name).name, m.name);
  }
}

TEST(ExperimentConfig, RunsParsedSpecEndToEnd) {
  const auto doc = falcon::Json::parse(R"({
    "experiments": [
      {"name": "quick", "benchmark": "MobileNetV2", "config": "localGPUs",
       "epochs": 1, "iterations_cap": 4}
    ]
  })");
  const auto specs = parseExperimentSuite(doc);
  const auto r = runExperimentSpec(specs[0]);
  EXPECT_TRUE(r.training.completed);
  EXPECT_EQ(r.benchmark, "MobileNetV2");
}

}  // namespace
}  // namespace composim::core
