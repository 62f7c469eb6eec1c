// Tests for elastic mid-training re-composition (§III-B.3: devices
// re-allocated dynamically on the fly) and the extension models.
#include <gtest/gtest.h>

#include "core/composable_system.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"

namespace composim::dl {
namespace {

using core::ComposableSystem;
using core::SystemConfig;

struct ElasticFixture : ::testing::Test {
  ComposableSystem sys{SystemConfig::AllGpus16};

  TrainerOptions fastOpts(int epochs) {
    TrainerOptions opt;
    opt.epochs = epochs;
    opt.max_iterations_per_epoch = 4;
    return opt;
  }
};

TEST_F(ElasticFixture, GrowsFromEightToSixteenAtEpochBoundary) {
  auto all = sys.trainingGpus();
  std::vector<devices::Gpu*> eight(all.begin(), all.begin() + 8);
  const auto model = workload("ResNet-50");
  {
    Trainer t(sys.sim(), sys.network(), sys.topology(), eight, sys.cpu(),
              sys.hostMemory(), sys.trainingStorage(), model, datasetFor(model),
              fastOpts(2));
    EXPECT_TRUE(t.requestResize(all));  // apply after epoch 1's checkpoint
    TrainingResult r;
    t.start([&](const TrainingResult& rr) { r = rr; });
    sys.sim().run();
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_EQ(t.resizeCount(), 1);
    EXPECT_EQ(t.groupSize(), 16u);
    // All sixteen replicas hold model state after the grow.
    for (auto* g : all) EXPECT_GT(g->allocatedBytes(), 0);
  }
  // The trainer releases every replica it ended with.
  for (auto* g : all) EXPECT_EQ(g->allocatedBytes(), 0);
}

TEST_F(ElasticFixture, ShrinkReleasesDetachedGpus) {
  auto all = sys.trainingGpus();
  std::vector<devices::Gpu*> eight(all.begin(), all.begin() + 8);
  std::vector<devices::Gpu*> four(all.begin(), all.begin() + 4);
  const auto model = workload("ResNet-50");
  Trainer t(sys.sim(), sys.network(), sys.topology(), eight, sys.cpu(),
            sys.hostMemory(), sys.trainingStorage(), model, datasetFor(model),
            fastOpts(3));
  TrainingResult r;
  bool shrunk = false;
  t.start([&](const TrainingResult& rr) { r = rr; });
  // Shrink once epoch 1 is underway.
  while (sys.sim().step()) {
    if (!shrunk && t.currentEpoch() == 1) {
      shrunk = true;
      EXPECT_TRUE(t.requestResize(four));
    }
  }
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(t.groupSize(), 4u);
  EXPECT_GT(r.iterations_run, 0);
  // GPUs 4..7 were handed back at the shrink, while the trainer lives.
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(all[i]->allocatedBytes(), 0) << "gpu " << i;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(all[i]->allocatedBytes(), 0) << "gpu " << i;
  }
}

TEST_F(ElasticFixture, ResizeRejectsEmptyGroupAndAfterFinish) {
  auto all = sys.trainingGpus();
  std::vector<devices::Gpu*> eight(all.begin(), all.begin() + 8);
  const auto model = workload("ResNet-50");
  Trainer t(sys.sim(), sys.network(), sys.topology(), eight, sys.cpu(),
            sys.hostMemory(), sys.trainingStorage(), model, datasetFor(model),
            fastOpts(1));
  EXPECT_FALSE(t.requestResize({}));
  TrainingResult r;
  t.start([&](const TrainingResult& rr) { r = rr; });
  sys.sim().run();
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(t.requestResize(all));  // already finished
}

TEST_F(ElasticFixture, ThroughputRisesAfterGrow) {
  // Train 2 epochs at 8 GPUs vs 1+1 epochs growing to 16: the grown run
  // finishes the same sample count faster.
  auto runSamplesPerSecond = [this](bool grow) {
    ComposableSystem local{SystemConfig::AllGpus16};
    auto all = local.trainingGpus();
    std::vector<devices::Gpu*> eight(all.begin(), all.begin() + 8);
    const auto model = workload("ResNet-50");
    Trainer t(local.sim(), local.network(), local.topology(), eight,
              local.cpu(), local.hostMemory(), local.trainingStorage(), model,
              datasetFor(model), fastOpts(2));
    if (grow) {
      EXPECT_TRUE(t.requestResize(all));
    }
    TrainingResult r;
    t.start([&](const TrainingResult& rr) { r = rr; });
    local.sim().run();
    EXPECT_TRUE(r.completed);
    return r.samples_per_second;  // steady-state of the final composition
  };
  // The grown run's mean mixes 8- and 16-GPU epochs; even so it clears
  // the static 8-GPU run by a wide margin.
  EXPECT_GT(runSamplesPerSecond(true), runSamplesPerSecond(false) * 1.3);
}

TEST(ExtensionModels, Gpt2MediumAndVitHavePublishedScale) {
  const auto gpt = workload("GPT-2-medium");
  EXPECT_GT(gpt.totalParams(), 340000000);  // ~355M
  EXPECT_LT(gpt.totalParams(), 370000000);
  EXPECT_EQ(gpt.reported_depth, 24);
  const auto vit = workload("ViT-B/16");
  EXPECT_GT(vit.totalParams(), 82000000);   // ~86M
  EXPECT_LT(vit.totalParams(), 92000000);
  EXPECT_EQ(vit.domain, Domain::ComputerVision);
  EXPECT_EQ(datasetFor(vit).name, "ImageNet");
}

TEST(ExtensionModels, TrainEndToEnd) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  auto gpus = sys.trainingGpus();
  for (const auto& model : {workload("GPT-2-medium"), workload("ViT-B/16")}) {
    TrainerOptions opt;
    opt.epochs = 1;
    opt.max_iterations_per_epoch = 3;
    Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
              sys.hostMemory(), sys.trainingStorage(), model, datasetFor(model),
              opt);
    ASSERT_GE(t.maxFeasibleBatchPerGpu(), model.paper_batch_per_gpu) << model.name;
    TrainingResult r;
    t.start([&](const TrainingResult& rr) { r = rr; });
    sys.sim().run();
    EXPECT_TRUE(r.completed) << model.name << ": " << r.error;
  }
}

}  // namespace
}  // namespace composim::dl
