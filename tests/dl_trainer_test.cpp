// Tests for the training engine: strategies, precision, sharding, memory
// planning, checkpointing.
#include <gtest/gtest.h>

#include "core/composable_system.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"

namespace composim::dl {
namespace {

using core::ComposableSystem;
using core::SystemConfig;

/// A small synthetic model that trains in a handful of simulated
/// milliseconds, for fast trainer unit tests.
ModelSpec tinyModel() {
  ModelSpec m;
  m.name = "tiny";
  m.domain = Domain::ComputerVision;
  m.dataset = "ImageNet";
  m.fp16_efficiency = 0.5;
  m.fp32_efficiency = 0.5;
  m.input_bytes_per_sample = units::KB(32);
  m.paper_batch_per_gpu = 8;
  m.paper_epochs = 1;
  for (int i = 0; i < 8; ++i) {
    LayerSpec l;
    l.name = std::string("l").append(std::to_string(i));
    l.kind = LayerKind::Conv;
    l.params = 1000000;
    l.forward_flops = 5e8;
    l.activation_bytes = units::MB(1);
    m.layers.push_back(l);
  }
  return m;
}

DatasetSpec tinyData() {
  DatasetSpec d;
  d.name = "ImageNet";  // reuse the imagenet label for datasetFor symmetry
  d.train_samples = 4096;
  d.disk_bytes_per_sample = units::KB(16);
  d.cpu_preprocess_per_sample = units::microseconds(50);
  d.device_bytes_per_sample = units::KB(32);
  return d;
}

struct TrainerFixture : ::testing::Test {
  ComposableSystem sys{SystemConfig::LocalGpus};

  TrainingResult train(TrainerOptions opt, ModelSpec model,
                       DatasetSpec data) {
    auto gpus = sys.trainingGpus();
    Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
              sys.hostMemory(), sys.trainingStorage(), std::move(model),
              std::move(data), opt);
    TrainingResult out;
    t.start([&](const TrainingResult& r) { out = r; });
    sys.sim().run();
    return out;
  }
};

TEST_F(TrainerFixture, CompletesRequestedIterations) {
  TrainerOptions opt;
  opt.epochs = 2;
  opt.max_iterations_per_epoch = 5;
  const auto r = train(opt, tinyModel(), tinyData());
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.iterations_run, 10);
  EXPECT_EQ(r.epochs, 2);
  EXPECT_GT(r.mean_iteration_time, 0.0);
  EXPECT_GT(r.samples_per_second, 0.0);
}

TEST_F(TrainerFixture, FullRunExtrapolationUsesDatasetSize) {
  TrainerOptions opt;
  opt.epochs = 2;
  opt.max_iterations_per_epoch = 4;
  const auto r = train(opt, tinyModel(), tinyData());
  // 4096 samples / (8 x 8 GPUs) = 64 iterations per epoch.
  EXPECT_EQ(r.iterations_full, 128);
  EXPECT_GT(r.extrapolated_total_time, r.simulated_time);
}

TEST_F(TrainerFixture, LossCurveDecreases) {
  TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 30;
  const auto r = train(opt, tinyModel(), tinyData());
  ASSERT_EQ(r.loss_curve.size(), 30u);
  const double head = (r.loss_curve[0] + r.loss_curve[1] + r.loss_curve[2]) / 3;
  const auto n = r.loss_curve.size();
  const double tail =
      (r.loss_curve[n - 1] + r.loss_curve[n - 2] + r.loss_curve[n - 3]) / 3;
  EXPECT_LT(tail, head);
}

TEST_F(TrainerFixture, CheckpointsRecordedPerEpoch) {
  TrainerOptions opt;
  opt.epochs = 3;
  opt.max_iterations_per_epoch = 2;
  opt.checkpoint_every_iters = 0;
  const auto r = train(opt, tinyModel(), tinyData());
  // 8M params x 4 bytes per checkpoint, 3 checkpoints.
  EXPECT_EQ(r.checkpoint_bytes, 3LL * 8000000 * 4);
  EXPECT_GT(r.checkpoint_time, 0.0);
}

TEST_F(TrainerFixture, CheckpointEveryNIterations) {
  TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 10;
  opt.checkpoint_every_iters = 4;
  const auto r = train(opt, tinyModel(), tinyData());
  // After iterations 4 and 8, plus the epoch end.
  EXPECT_EQ(r.checkpoint_bytes, 3LL * 8000000 * 4);
}

TEST_F(TrainerFixture, DdpBeatsDpForCommHeavyModels) {
  ModelSpec heavy = tinyModel();
  for (auto& l : heavy.layers) l.params = 20000000;  // 160M params
  TrainerOptions ddp;
  ddp.epochs = 1;
  ddp.max_iterations_per_epoch = 6;
  ddp.strategy = Strategy::DistributedDataParallel;
  TrainerOptions dp = ddp;
  dp.strategy = Strategy::DataParallel;
  const auto rddp = train(ddp, heavy, tinyData());
  ComposableSystem sys2{SystemConfig::LocalGpus};
  auto gpus2 = sys2.trainingGpus();
  Trainer t2(sys2.sim(), sys2.network(), sys2.topology(), gpus2, sys2.cpu(),
             sys2.hostMemory(), sys2.trainingStorage(), heavy, tinyData(), dp);
  TrainingResult rdp;
  t2.start([&](const TrainingResult& r) { rdp = r; });
  sys2.sim().run();
  EXPECT_LT(rddp.mean_iteration_time, rdp.mean_iteration_time);
}

TEST_F(TrainerFixture, Fp16FasterThanFp32) {
  TrainerOptions f16;
  f16.epochs = 1;
  f16.max_iterations_per_epoch = 5;
  f16.precision = devices::Precision::FP16;
  const auto r16 = train(f16, tinyModel(), tinyData());
  ComposableSystem sys2{SystemConfig::LocalGpus};
  TrainerOptions f32 = f16;
  f32.precision = devices::Precision::FP32;
  auto gpus2 = sys2.trainingGpus();
  Trainer t2(sys2.sim(), sys2.network(), sys2.topology(), gpus2, sys2.cpu(),
             sys2.hostMemory(), sys2.trainingStorage(), tinyModel(), tinyData(),
             f32);
  TrainingResult r32;
  t2.start([&](const TrainingResult& r) { r32 = r; });
  sys2.sim().run();
  EXPECT_LT(r16.mean_iteration_time, r32.mean_iteration_time);
}

TEST_F(TrainerFixture, InfeasibleBatchAbortsWithOomError) {
  TrainerOptions opt;
  opt.batch_per_gpu = 100000;  // cannot fit
  const auto r = train(opt, tinyModel(), tinyData());
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("exceeds"), std::string::npos);
  EXPECT_EQ(r.iterations_run, 0);
}

TEST_F(TrainerFixture, MemoryPlannerMatchesPaperBertBatches) {
  auto gpus = sys.trainingGpus();
  const auto bl = workload("BERT-L");
  TrainerOptions plain;
  Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
            sys.hostMemory(), sys.trainingStorage(), bl, datasetFor(bl), plain);
  // Paper: BERT-large fits batch 6 per GPU without sharding...
  EXPECT_EQ(t.maxFeasibleBatchPerGpu(), 6);
  TrainerOptions sharded;
  sharded.sharded = true;
  Trainer ts(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
             sys.hostMemory(), sys.trainingStorage(), bl, datasetFor(bl), sharded);
  // ...and 10 with the sharded optimizer (Fig 16: "batch size from 6 to 10").
  EXPECT_EQ(ts.maxFeasibleBatchPerGpu(), 10);
}

TEST_F(TrainerFixture, PaperBatchesFitForAllBenchmarks) {
  auto gpus = sys.trainingGpus();
  for (const auto& m : WorkloadRegistry::instance().paperZoo()) {
    TrainerOptions opt;
    Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
              sys.hostMemory(), sys.trainingStorage(), m, datasetFor(m), opt);
    EXPECT_GE(t.maxFeasibleBatchPerGpu(), m.paper_batch_per_gpu) << m.name;
    EXPECT_LE(t.perGpuMemoryNeeded(m.paper_batch_per_gpu),
              gpus.front()->capacity())
        << m.name;
  }
}

TEST_F(TrainerFixture, MemoryPlanChargesAdamState) {
  // Adam keeps 8 bytes of state per parameter (m + v), plus a 4-byte FP32
  // master copy under mixed precision. Sharding divides params, grads and
  // optimizer state across the 8 ranks, so its saving isolates them.
  auto gpus = sys.trainingGpus();
  const std::int64_t params = tinyModel().totalParams();
  const auto stateBytesPerParam = [&](devices::Precision precision) {
    TrainerOptions plain;
    plain.precision = precision;
    TrainerOptions sharded = plain;
    sharded.sharded = true;
    Trainer tp(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
               sys.hostMemory(), sys.trainingStorage(), tinyModel(),
               tinyData(), plain);
    Trainer ts(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
               sys.hostMemory(), sys.trainingStorage(), tinyModel(),
               tinyData(), sharded);
    const Bytes saved = tp.perGpuMemoryNeeded(1) - ts.perGpuMemoryNeeded(1);
    const Bytes states = saved * 8 / 7;  // saved = states - states / 8
    const Bytes elem = precision == devices::Precision::FP16 ? 2 : 4;
    return states / params - 2 * elem;  // minus the working copy and grad
  };
  EXPECT_EQ(stateBytesPerParam(devices::Precision::FP16), 12);
  EXPECT_EQ(stateBytesPerParam(devices::Precision::FP32), 8);
}

TEST_F(TrainerFixture, ShardingReducesPerGpuMemory) {
  auto gpus = sys.trainingGpus();
  const auto bl = workload("BERT-L");
  TrainerOptions plain, sharded;
  sharded.sharded = true;
  Trainer tp(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
             sys.hostMemory(), sys.trainingStorage(), bl, datasetFor(bl), plain);
  Trainer tsh(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
              sys.hostMemory(), sys.trainingStorage(), bl, datasetFor(bl), sharded);
  EXPECT_LT(tsh.perGpuMemoryNeeded(6), tp.perGpuMemoryNeeded(6));
}

TEST_F(TrainerFixture, GpuMemoryReleasedAfterRun) {
  TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 2;
  {
    auto gpus = sys.trainingGpus();
    Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
              sys.hostMemory(), sys.trainingStorage(), tinyModel(), tinyData(),
              opt);
    TrainingResult r;
    t.start([&](const TrainingResult& rr) { r = rr; });
    sys.sim().run();
    EXPECT_TRUE(r.completed);
    EXPECT_GT(gpus.front()->allocatedBytes(), 0);
  }
  EXPECT_EQ(sys.trainingGpus().front()->allocatedBytes(), 0);
}

TEST_F(TrainerFixture, DataStallVisibleWithSlowStorage) {
  ComposableSystem slow{SystemConfig::LocalGpus};  // boot SSD storage
  DatasetSpec heavy = tinyData();
  heavy.disk_bytes_per_sample = units::MB(4);
  TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 6;
  auto gpus = slow.trainingGpus();
  Trainer t(slow.sim(), slow.network(), slow.topology(), gpus, slow.cpu(),
            slow.hostMemory(), slow.trainingStorage(), tinyModel(), heavy, opt);
  TrainingResult r;
  t.start([&](const TrainingResult& rr) { r = rr; });
  slow.sim().run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.data_stall_time, 0.05);
}

TEST_F(TrainerFixture, RestoreRetiresACommunicatorWithAnOpInFlight) {
  auto gpus = sys.trainingGpus();
  TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 4;
  Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
            sys.hostMemory(), sys.trainingStorage(), tinyModel(), tinyData(),
            opt);
  TrainingResult out;
  t.start([&](const TrainingResult& r) { out = r; });
  const auto opInFlight = [](const collectives::Communicator& c) {
    try {
      (void)c.state();
      return false;
    } catch (const std::logic_error&) {
      return true;
    }
  };
  while (!opInFlight(t.communicator()) && sys.sim().step()) {
  }
  collectives::Communicator& retired = t.communicator();
  ASSERT_TRUE(opInFlight(retired));
  ASSERT_TRUE(t.requestRestore(gpus));
  EXPECT_NE(&t.communicator(), &retired);
  sys.sim().run();
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.iterations_run, 4);
  // The orphaned op ran to its end on the retired communicator's pooled
  // state, and everything is quiescent again.
  EXPECT_FALSE(opInFlight(retired));
  EXPECT_FALSE(opInFlight(t.communicator()));
  EXPECT_NO_THROW((void)sys.network().state());
}

TEST(TrainerBasics, RequiresGpus) {
  ComposableSystem sys{SystemConfig::LocalGpus};
  TrainerOptions opt;
  EXPECT_THROW(Trainer(sys.sim(), sys.network(), sys.topology(), {}, sys.cpu(),
                       sys.hostMemory(), sys.trainingStorage(), tinyModel(),
                       tinyData(), opt),
               std::invalid_argument);
}

TEST(TrainerBasics, StrategyNames) {
  EXPECT_STREQ(toString(Strategy::DataParallel), "DP");
  EXPECT_STREQ(toString(Strategy::DistributedDataParallel), "DDP");
}

}  // namespace
}  // namespace composim::dl
