// Tests for the input pipeline (storage -> host -> CPU preprocess -> ready).
#include <gtest/gtest.h>

#include "dl/pipeline.hpp"
#include "dl/workload_registry.hpp"
#include "fabric/link_catalog.hpp"

namespace composim::dl {
namespace {

struct PipelineFixture : ::testing::Test {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net{sim, topo};
  devices::HostCpu cpu{sim, devices::specs::xeon_gold_6148()};
  fabric::NodeId root = topo.addNode("root", fabric::NodeKind::CpuRootComplex);
  fabric::NodeId mem = topo.addNode("mem", fabric::NodeKind::HostMemory);
  fabric::NodeId disk = topo.addNode("disk", fabric::NodeKind::Storage);
  std::unique_ptr<devices::StorageDevice> storage;

  void SetUp() override {
    const auto bus = fabric::catalog::memoryBus();
    topo.addDuplexLink(root, mem, bus.capacityPerDirection, bus.latency, bus.kind);
    const auto pcie = fabric::catalog::pcie3_x16();
    topo.addDuplexLink(disk, root, pcie.capacityPerDirection, pcie.latency, pcie.kind);
    storage = std::make_unique<devices::StorageDevice>(
        net, disk, devices::specs::intel_nvme_4tb(), "nvme");
  }

  DatasetSpec tinySet() {
    DatasetSpec d;
    d.name = "tiny";
    d.train_samples = 10000;
    d.disk_bytes_per_sample = units::KB(100);
    d.cpu_preprocess_per_sample = units::milliseconds(1.0);
    d.device_bytes_per_sample = units::KB(300);
    return d;
  }
};

TEST_F(PipelineFixture, DeliversRequestedBatches) {
  DataPipeline p(sim, cpu, *storage, mem, tinySet(), 64);
  p.start();
  int got = 0;
  for (int i = 0; i < 5; ++i) p.requestBatch([&] { ++got; });
  sim.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(p.batchesDelivered(), 5);
  p.stop();
}

TEST_F(PipelineFixture, PrefetchDepthBoundsProduction) {
  PipelineOptions opt;
  opt.prefetch_batches = 2;
  DataPipeline p(sim, cpu, *storage, mem, tinySet(), 64, opt);
  p.start();
  sim.run();  // no consumers: production stops at the prefetch depth
  EXPECT_EQ(p.batchesProduced(), 2);
  EXPECT_GT(p.hostStagingBytes(), 0);
}

TEST_F(PipelineFixture, StagingMemoryFreedOnDelivery) {
  DataPipeline p(sim, cpu, *storage, mem, tinySet(), 64);
  p.start();
  sim.run();
  const Bytes staged = p.hostStagingBytes();
  EXPECT_GT(staged, 0);
  const Bytes perBatch = p.storageBytesPerBatch() + p.deviceBytesPerBatch();
  p.requestBatch([] {});
  sim.run();  // delivery frees one batch; production tops back up
  EXPECT_LE(p.hostStagingBytes(), staged);
  EXPECT_EQ(p.hostStagingBytes() % perBatch, 0);
}

TEST_F(PipelineFixture, StallTimeMeasuredWhenConsumerOutpacesStorage) {
  // Giant batches on a slow device: consumers must wait.
  DatasetSpec heavy = tinySet();
  heavy.disk_bytes_per_sample = units::MB(10);
  devices::StorageDevice slow(net, disk, devices::specs::sata_boot_ssd(), "sata");
  DataPipeline p(sim, cpu, slow, mem, heavy, 64);
  p.start();
  int got = 0;
  for (int i = 0; i < 3; ++i) p.requestBatch([&] { ++got; });
  sim.run();
  EXPECT_EQ(got, 3);
  EXPECT_GT(p.stallTime(), 1.0);  // 640 MB per batch at ~0.25 GB/s
}

TEST_F(PipelineFixture, UncachedFractionScalesStorageBytes) {
  DatasetSpec d = tinySet();
  d.uncached_read_fraction = 0.1;
  DataPipeline p(sim, cpu, *storage, mem, d, 100);
  EXPECT_EQ(p.storageBytesPerBatch(), units::KB(100) / 10 * 100);
}

TEST_F(PipelineFixture, CpuWorkAccountedOnHostThreads) {
  DataPipeline p(sim, cpu, *storage, mem, tinySet(), 64);
  p.start();
  p.requestBatch([] {});
  sim.run();
  // Each produced batch costs 64 x 1 ms of CPU thread time.
  const double batches = static_cast<double>(p.batchesProduced());
  EXPECT_NEAR(cpu.busyThreadTime(), batches * 64 * 0.001, 1e-6);
}

TEST_F(PipelineFixture, StopHaltsProduction) {
  DataPipeline p(sim, cpu, *storage, mem, tinySet(), 64);
  p.start();
  sim.run();
  const auto produced = p.batchesProduced();
  p.stop();
  p.requestBatch([] {});  // consumes a ready batch; no new production
  sim.run();
  EXPECT_EQ(p.batchesProduced(), produced);
}

}  // namespace
}  // namespace composim::dl
