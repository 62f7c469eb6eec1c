// Tests for the Table III configuration builder.
#include <gtest/gtest.h>

#include "core/composable_system.hpp"

namespace composim::core {
namespace {

TEST(SystemConfigNames, MatchTableIII) {
  EXPECT_STREQ(toString(SystemConfig::LocalGpus), "localGPUs");
  EXPECT_STREQ(toString(SystemConfig::HybridGpus), "hybridGPUs");
  EXPECT_STREQ(toString(SystemConfig::FalconGpus), "falconGPUs");
  EXPECT_STREQ(toString(SystemConfig::LocalNvme), "localNVMe");
  EXPECT_STREQ(toString(SystemConfig::FalconNvme), "falconNVMe");
  EXPECT_EQ(allConfigs().size(), 5u);
  EXPECT_EQ(gpuConfigs().size(), 3u);
  EXPECT_EQ(storageConfigs().size(), 3u);
}

TEST(ComposableSystem, EveryConfigTrainsOnEightGpus) {
  for (const auto c : allConfigs()) {
    ComposableSystem sys(c);
    EXPECT_EQ(sys.trainingGpus().size(), 8u) << toString(c);
    EXPECT_EQ(trainingGpuCount(c), 8u) << toString(c);
  }
}

TEST(ComposableSystem, LocalGpusAreNvlinkedSxm2) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  const auto gpus = sys.trainingGpus();
  for (const auto* g : gpus) {
    EXPECT_EQ(g->spec().name, "Tesla V100-SXM2-16GB");
  }
  // Adjacent ring GPUs reachable via one NVLink hop.
  auto r = sys.topology().route(gpus[0]->node(), gpus[1]->node());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(sys.topology().link(r->links[0]).kind, fabric::LinkKind::NVLink);
}

TEST(ComposableSystem, HybridMixesLocalAndFalcon) {
  ComposableSystem sys(SystemConfig::HybridGpus);
  const auto gpus = sys.trainingGpus();
  int local = 0, falcon = 0;
  for (const auto* g : gpus) {
    if (g->name().find("local") != std::string::npos) ++local;
    if (g->name().find("falcon") != std::string::npos) ++falcon;
  }
  EXPECT_EQ(local, 4);
  EXPECT_EQ(falcon, 4);
  // The falcon GPUs in hybrid come from drawer 0 and are attached to H1.
  EXPECT_EQ(sys.chassis().devicesAssignedTo(0).size(), 4u);
  EXPECT_EQ(sys.chassis().devicesAssignedTo(2).size(), 0u);
}

TEST(ComposableSystem, FalconGpusSpanBothDrawers) {
  ComposableSystem sys(SystemConfig::FalconGpus);
  EXPECT_EQ(sys.chassis().devicesAssignedTo(0).size(), 4u);
  EXPECT_EQ(sys.chassis().devicesAssignedTo(2).size(), 4u);
  for (const auto* g : sys.trainingGpus()) {
    EXPECT_EQ(g->spec().name, "Tesla V100-PCIE-16GB");
    EXPECT_EQ(g->spec().nvlink_bricks, 0);
  }
}

TEST(ComposableSystem, StorageSelectionFollowsTableIII) {
  EXPECT_EQ(ComposableSystem(SystemConfig::LocalGpus).trainingStorage().name(),
            "ssd.boot");
  EXPECT_EQ(ComposableSystem(SystemConfig::HybridGpus).trainingStorage().name(),
            "ssd.boot");
  EXPECT_EQ(ComposableSystem(SystemConfig::LocalNvme).trainingStorage().name(),
            "nvme.local");
  EXPECT_EQ(ComposableSystem(SystemConfig::FalconNvme).trainingStorage().name(),
            "nvme.falcon");
}

TEST(ComposableSystem, FalconNvmeIsReachedThroughTheChassis) {
  ComposableSystem sys(SystemConfig::FalconNvme);
  auto r = sys.topology().route(sys.falconNvme().node(), sys.hostMemory());
  ASSERT_TRUE(r.has_value());
  bool crossesHostAdapter = false;
  for (auto l : r->links) {
    if (sys.topology().link(l).kind == fabric::LinkKind::HostAdapter) {
      crossesHostAdapter = true;
    }
  }
  EXPECT_TRUE(crossesHostAdapter);
  // A local NVMe read does not touch the chassis.
  auto rl = sys.topology().route(sys.localNvme().node(), sys.hostMemory());
  ASSERT_TRUE(rl.has_value());
  for (auto l : rl->links) {
    EXPECT_NE(sys.topology().link(l).kind, fabric::LinkKind::HostAdapter);
  }
}

TEST(ComposableSystem, FalconPortCountersStartAtZero) {
  ComposableSystem sys(SystemConfig::FalconGpus);
  EXPECT_EQ(sys.falconGpuPortBytes(), 0);
}

TEST(ComposableSystem, FalconPortCountersSeeP2pTraffic) {
  ComposableSystem sys(SystemConfig::FalconGpus);
  const auto gpus = sys.trainingGpus();
  sys.network().startFlow(gpus[0]->node(), gpus[1]->node(), units::MiB(64),
                          [](const fabric::FlowResult&) {});
  sys.sim().run();
  EXPECT_NEAR(static_cast<double>(sys.falconGpuPortBytes()),
              2.0 * static_cast<double>(units::MiB(64)), 16.0);
}

TEST(ComposableSystem, McsHasAdminAccount) {
  ComposableSystem sys(SystemConfig::LocalGpus);
  EXPECT_EQ(sys.mcs().roleOf("admin"), falcon::Role::Administrator);
}

TEST(ComposableSystem, DrawerActivityReflectsGpuBusyState) {
  ComposableSystem sys(SystemConfig::FalconGpus);
  EXPECT_DOUBLE_EQ(sys.drawerActivity(0), 0.0);
  devices::KernelDesc k;
  k.flops = 1e12;
  k.efficiency = 0.1;
  auto gpus = sys.trainingGpus();
  gpus[0]->launchKernel(k, nullptr);  // drawer 0 GPU
  EXPECT_DOUBLE_EQ(sys.drawerActivity(0), 0.25);  // 1 of 4 busy
  sys.sim().run();
  EXPECT_DOUBLE_EQ(sys.drawerActivity(0), 0.0);
}

}  // namespace
}  // namespace composim::core
