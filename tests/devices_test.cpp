// Tests for the GPU, host CPU and storage device models.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "devices/gpu.hpp"
#include "devices/host_cpu.hpp"
#include "devices/storage.hpp"
#include "fabric/link_catalog.hpp"
#include "sim/units.hpp"

namespace composim::devices {
namespace {

using fabric::NodeKind;

struct GpuFixture : ::testing::Test {
  Simulator sim;
  fabric::Topology topo;
  fabric::NodeId node = topo.addNode("gpu0", NodeKind::Gpu);
  Gpu gpu{sim, node, specs::v100_sxm2(), "gpu0"};
};

TEST_F(GpuFixture, RooflineComputeBound) {
  KernelDesc k;
  k.flops = units::TFLOP(1);
  k.mem_bytes = 0;
  k.precision = Precision::FP16;
  k.efficiency = 0.5;
  // 1 TFLOP at 62.5 TFLOPS = 16 ms + launch overhead.
  EXPECT_NEAR(gpu.kernelDuration(k), 0.016 + 6e-6, 1e-6);
}

TEST_F(GpuFixture, RooflineMemoryBound) {
  KernelDesc k;
  k.flops = units::GFLOP(1);
  k.mem_bytes = units::GB(9);  // 9 GB / 900 GB/s = 10 ms >> compute
  k.efficiency = 0.5;
  EXPECT_NEAR(gpu.kernelDuration(k), 0.010 + 6e-6, 1e-6);
}

TEST_F(GpuFixture, Fp32UsesCudaCoreRate) {
  KernelDesc k;
  k.flops = units::TFLOP(1.57);
  k.precision = Precision::FP32;
  k.efficiency = 1.0;
  EXPECT_NEAR(gpu.kernelDuration(k), 0.1 + 6e-6, 1e-6);  // 15.7 TFLOPS
}

TEST_F(GpuFixture, KernelsRunFifo) {
  std::vector<int> order;
  KernelDesc k;
  k.flops = units::GFLOP(10);
  k.efficiency = 0.1;
  gpu.launchKernel(k, [&] { order.push_back(1); });
  gpu.launchKernel(k, [&] { order.push_back(2); });
  gpu.launchKernel(k, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(gpu.kernelsLaunched(), 3u);
  EXPECT_EQ(gpu.kernelsRetired(), 3u);
}

TEST_F(GpuFixture, BusyTimeAccumulatesKernelDurations) {
  KernelDesc k;
  k.flops = units::TFLOP(1);
  k.efficiency = 0.4;  // 50 TFLOPS -> 20 ms
  gpu.launchKernel(k, nullptr);
  gpu.launchKernel(k, nullptr);
  sim.run();
  EXPECT_NEAR(gpu.busyTime(), 2 * (0.02 + 6e-6), 1e-6);
  EXPECT_FALSE(gpu.busy());
}

// A completion callback that launches onto a GPU whose queue still holds a
// kernel queues behind it: one compute stream, so the three kernels retire
// back to back and the GPU is busy exactly their serial sum.
TEST_F(GpuFixture, CallbackLaunchQueuesBehindWaitingKernel) {
  KernelDesc k1, k2, k3;
  k1.flops = units::TFLOP(1);
  k2.flops = units::TFLOP(2);
  k3.flops = units::TFLOP(3);
  for (KernelDesc* k : {&k1, &k2, &k3}) k->efficiency = 0.4;
  const SimTime d1 = gpu.kernelDuration(k1);
  const SimTime d2 = gpu.kernelDuration(k2);
  const SimTime d3 = gpu.kernelDuration(k3);
  std::vector<std::pair<int, SimTime>> retired;
  gpu.launchKernel(k1, [&] {
    retired.emplace_back(1, sim.now());
    gpu.launchKernel(k3, [&] { retired.emplace_back(3, sim.now()); });
  });
  gpu.launchKernel(k2, [&] { retired.emplace_back(2, sim.now()); });
  sim.run();
  ASSERT_EQ(retired.size(), 3u);
  EXPECT_EQ(retired[0].first, 1);
  EXPECT_EQ(retired[1].first, 2);
  EXPECT_EQ(retired[2].first, 3);
  EXPECT_DOUBLE_EQ(retired[0].second, d1);
  EXPECT_DOUBLE_EQ(retired[1].second, d1 + d2);
  EXPECT_DOUBLE_EQ(retired[2].second, d1 + d2 + d3);
  EXPECT_DOUBLE_EQ(gpu.busyTime(), d1 + d2 + d3);
  EXPECT_DOUBLE_EQ(gpu.busyTime(), sim.now());
  EXPECT_EQ(gpu.kernelsRetired(), 3u);
  EXPECT_FALSE(gpu.busy());
}

TEST_F(GpuFixture, MemBusyTracksMemoryPortionOnly) {
  KernelDesc k;
  k.flops = units::TFLOP(1);
  k.efficiency = 0.4;            // 20 ms compute
  k.mem_bytes = units::GB(4.5);  // 5 ms of HBM traffic
  gpu.launchKernel(k, nullptr);
  sim.run();
  EXPECT_NEAR(gpu.memBusyTime(), 0.005, 1e-6);
  EXPECT_LT(gpu.memBusyTime(), gpu.busyTime());
}

TEST_F(GpuFixture, CreditCommBusyAddsUtilization) {
  const SimTime before = gpu.busyTime();
  gpu.creditCommBusy(0.05);
  EXPECT_NEAR(gpu.busyTime() - before, 0.05, 1e-12);
  gpu.creditCommBusy(-1.0);  // ignored
  EXPECT_NEAR(gpu.busyTime() - before, 0.05, 1e-12);
}

TEST_F(GpuFixture, AllocatorEnforcesCapacity) {
  gpu.allocate(units::GiB(10));
  EXPECT_EQ(gpu.allocatedBytes(), units::GiB(10));
  EXPECT_THROW(gpu.allocate(units::GiB(7)), GpuOutOfMemory);
  gpu.free(units::GiB(4));
  EXPECT_NO_THROW(gpu.allocate(units::GiB(7)));
  EXPECT_NEAR(gpu.memoryUtilization(), 13.0 / 16.0, 1e-9);
}

TEST_F(GpuFixture, FreeClampsAtZero) {
  gpu.allocate(units::GiB(1));
  gpu.free(units::GiB(5));
  EXPECT_EQ(gpu.allocatedBytes(), 0);
}

TEST(HostCpu, RunsTasksOnAvailableThreads) {
  Simulator sim;
  HostCpu cpu(sim, specs::xeon_gold_6148());
  EXPECT_EQ(cpu.totalThreads(), 80);  // 2 sockets x 20 cores x 2 HT
  int done = 0;
  for (int i = 0; i < 10; ++i) cpu.submit(0.01, [&] { ++done; });
  EXPECT_EQ(cpu.busyThreads(), 10);
  sim.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(cpu.busyThreads(), 0);
  EXPECT_NEAR(cpu.busyThreadTime(), 0.1, 1e-9);  // 10 tasks x 10 ms
}

TEST(HostCpu, QueuesBeyondThreadCount) {
  Simulator sim;
  CpuSpec tiny{"tiny", 1, 1, 2, 2.0, units::GiB(16)};  // 2 threads
  HostCpu cpu(sim, tiny);
  int done = 0;
  for (int i = 0; i < 5; ++i) cpu.submit(0.01, [&] { ++done; });
  EXPECT_EQ(cpu.busyThreads(), 2);
  EXPECT_EQ(cpu.queuedTasks(), 3u);
  sim.run();
  EXPECT_EQ(done, 5);
  // 5 tasks over 2 threads: finishes at 30 ms (3 serial waves).
  EXPECT_NEAR(sim.now(), 0.03, 1e-9);
}

TEST(HostCpu, MemoryAccounting) {
  Simulator sim;
  HostCpu cpu(sim, specs::xeon_gold_6148());
  cpu.allocateMemory(units::GiB(100));
  EXPECT_NEAR(cpu.memoryUtilization(), 100.0 / 756.0, 1e-6);
  cpu.freeMemory(units::GiB(200));
  EXPECT_EQ(cpu.memoryUsed(), 0);
}

struct StorageFixture : ::testing::Test {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net{sim, topo};
  fabric::NodeId root = topo.addNode("root", NodeKind::CpuRootComplex);
  fabric::NodeId mem = topo.addNode("mem", NodeKind::HostMemory);
  fabric::NodeId disk = topo.addNode("disk", NodeKind::Storage);

  void SetUp() override {
    const auto bus = fabric::catalog::memoryBus();
    topo.addDuplexLink(root, mem, bus.capacityPerDirection, bus.latency, bus.kind);
    const auto pcie = fabric::catalog::pcie3_x16();
    topo.addDuplexLink(disk, root, pcie.capacityPerDirection, pcie.latency, pcie.kind);
  }
};

TEST_F(StorageFixture, SequentialReadAtMediaRate) {
  StorageDevice nvme(net, disk, specs::intel_nvme_4tb(), "nvme");
  fabric::FlowResult res;
  nvme.read(units::GB(3.2), mem, AccessPattern::Sequential,
            [&](const fabric::FlowResult& r) { res = r; });
  sim.run();
  EXPECT_NEAR(res.duration(), 1.0, 0.01);  // 3.2 GB at 3.2 GB/s
  EXPECT_EQ(nvme.bytesRead(), units::GB(3.2));
}

TEST_F(StorageFixture, RandomReadIsDerated) {
  StorageDevice nvme(net, disk, specs::intel_nvme_4tb(), "nvme");
  fabric::FlowResult res;
  nvme.read(units::GB(1), mem, AccessPattern::Random,
            [&](const fabric::FlowResult& r) { res = r; });
  sim.run();
  // 3.2 * 0.72 = 2.304 GB/s effective.
  EXPECT_NEAR(res.duration(), 1.0 / 2.304, 0.01);
}

TEST_F(StorageFixture, WriteUsesWriteRate) {
  StorageDevice nvme(net, disk, specs::intel_nvme_4tb(), "nvme");
  fabric::FlowResult res;
  nvme.write(units::GB(1.9), mem, [&](const fabric::FlowResult& r) { res = r; });
  sim.run();
  EXPECT_NEAR(res.duration(), 1.0, 0.01);
  EXPECT_EQ(nvme.bytesWritten(), units::GB(1.9));
}

TEST_F(StorageFixture, SlowMediaNotLinkIsTheBottleneck) {
  StorageDevice ssd(net, disk, specs::sata_boot_ssd(), "boot");
  fabric::FlowResult res;
  ssd.read(units::MB(540), mem, AccessPattern::Sequential,
           [&](const fabric::FlowResult& r) { res = r; });
  sim.run();
  EXPECT_NEAR(res.duration(), 1.0, 0.01);  // media 540 MB/s << PCIe3 link
}

TEST(GpuSpecs, CatalogSanity) {
  const auto sxm2 = specs::v100_sxm2();
  EXPECT_EQ(sxm2.mem_capacity, units::GiB(16));
  EXPECT_EQ(sxm2.nvlink_bricks, 6);
  EXPECT_DOUBLE_EQ(sxm2.fp16_flops, units::TFLOPS(125.0));
  EXPECT_EQ(specs::v100_pcie().nvlink_bricks, 0);
  EXPECT_LT(specs::p100_pcie().fp16_flops, sxm2.fp16_flops);
  EXPECT_GT(specs::intel_nvme_4tb().seq_read, specs::sata_boot_ssd().seq_read);
}

}  // namespace
}  // namespace composim::devices
