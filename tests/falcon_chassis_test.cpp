// Tests for the Falcon 4016 chassis: wiring, modes of operation (Fig 4),
// attach/detach rules.
#include <gtest/gtest.h>

#include "falcon/bmc.hpp"
#include "falcon/chassis.hpp"

namespace composim::falcon {
namespace {

struct ChassisFixture : ::testing::Test {
  Simulator sim;
  fabric::Topology topo;
  FalconChassis chassis{sim, topo, "falcon0"};
  fabric::NodeId hostA = topo.addNode("hostA", fabric::NodeKind::CpuRootComplex);
  fabric::NodeId hostB = topo.addNode("hostB", fabric::NodeKind::CpuRootComplex);
  fabric::NodeId hostC = topo.addNode("hostC", fabric::NodeKind::CpuRootComplex);

  fabric::NodeId addGpu(SlotId slot) {
    const std::string name =
        std::string("g").append(std::to_string(slot.drawer)) + "_" +
                             std::to_string(slot.index);
    const fabric::NodeId n = topo.addNode(name, fabric::NodeKind::Gpu);
    EXPECT_TRUE(chassis.installDevice(slot, DeviceType::Gpu, name, n));
    return n;
  }
};

TEST_F(ChassisFixture, PortWiringMatchesDrawers) {
  EXPECT_EQ(chassis.hostPort(0).drawer, 0);
  EXPECT_EQ(chassis.hostPort(1).drawer, 0);
  EXPECT_EQ(chassis.hostPort(2).drawer, 1);
  EXPECT_EQ(chassis.hostPort(3).drawer, 1);
  EXPECT_EQ(chassis.hostPort(0).label, "H1");
  EXPECT_EQ(chassis.hostPort(3).label, "H4");
}

TEST_F(ChassisFixture, ConnectHostCreatesFabricPath) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  const fabric::NodeId gpu = addGpu({0, 0});
  auto r = topo.route(hostA, gpu);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->links.size(), 2u);  // host adapter + slot link
}

TEST_F(ChassisFixture, DoubleConnectRejected) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  EXPECT_FALSE(chassis.connectHost(0, hostB, "hostB"));
  EXPECT_FALSE(chassis.connectHost(4, hostB, "hostB"));
  EXPECT_FALSE(chassis.connectHost(-1, hostB, "hostB"));
}

TEST_F(ChassisFixture, InstallRejectsOccupiedSlotAndBadIds) {
  addGpu({0, 0});
  const fabric::NodeId n = topo.addNode("dup", fabric::NodeKind::Gpu);
  EXPECT_FALSE(chassis.installDevice({0, 0}, DeviceType::Gpu, "dup", n));
  EXPECT_FALSE(chassis.installDevice({2, 0}, DeviceType::Gpu, "dup", n));
  EXPECT_FALSE(chassis.installDevice({0, 8}, DeviceType::Gpu, "dup", n));
}

TEST_F(ChassisFixture, StandardModeOneHostTakesAllEight) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  for (int s = 0; s < 8; ++s) {
    addGpu({0, s});
    EXPECT_TRUE(chassis.attach({0, s}, 0)) << "slot " << s;
  }
  EXPECT_EQ(chassis.devicesAssignedTo(0).size(), 8u);
  EXPECT_EQ(chassis.hostsUsingDrawer(0), 1);
}

TEST_F(ChassisFixture, StandardModeTwoHostsSplitInFixedHalves) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  ASSERT_TRUE(chassis.connectHost(1, hostB, "hostB"));
  for (int s = 0; s < 8; ++s) addGpu({0, s});
  // Lower port gets 0-3, higher port gets 4-7.
  EXPECT_TRUE(chassis.attach({0, 0}, 0));
  EXPECT_TRUE(chassis.attach({0, 4}, 1));
  // Violations of the halves are rejected.
  EXPECT_FALSE(chassis.attach({0, 1}, 1));
  EXPECT_FALSE(chassis.attach({0, 5}, 0));
  EXPECT_TRUE(chassis.attach({0, 1}, 0));
  EXPECT_TRUE(chassis.attach({0, 5}, 1));
}

TEST_F(ChassisFixture, StandardModeRejectsThirdHost) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  ASSERT_TRUE(chassis.connectHost(1, hostB, "hostB"));
  for (int s = 0; s < 8; ++s) addGpu({0, s});
  ASSERT_TRUE(chassis.attach({0, 0}, 0));
  ASSERT_TRUE(chassis.attach({0, 4}, 1));
  // Reconnect a third tenant is impossible: both drawer-0 ports taken.
  EXPECT_FALSE(chassis.connectHost(0, hostC, "hostC"));
}

TEST_F(ChassisFixture, AdvancedModeAllowsArbitrarySplitsUpToThreeHosts) {
  ASSERT_TRUE(chassis.setDrawerMode(0, DrawerMode::Advanced));
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  ASSERT_TRUE(chassis.connectHost(1, hostB, "hostB"));
  for (int s = 0; s < 8; ++s) addGpu({0, s});
  // Interleaved assignment would violate Standard halves; Advanced is fine.
  EXPECT_TRUE(chassis.attach({0, 0}, 0));
  EXPECT_TRUE(chassis.attach({0, 1}, 1));
  EXPECT_TRUE(chassis.attach({0, 2}, 0));
  EXPECT_TRUE(chassis.attach({0, 3}, 1));
}

TEST_F(ChassisFixture, AttachValidation) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  ASSERT_TRUE(chassis.connectHost(2, hostB, "hostB"));
  addGpu({0, 0});
  EXPECT_FALSE(chassis.attach({0, 1}, 0));   // empty slot
  EXPECT_FALSE(chassis.attach({0, 0}, 1));   // port has no host
  EXPECT_FALSE(chassis.attach({0, 0}, 2));   // port wired to other drawer
  EXPECT_FALSE(chassis.attach({0, 0}, 9));   // bad port
  EXPECT_TRUE(chassis.attach({0, 0}, 0));
  EXPECT_TRUE(chassis.attach({0, 0}, 0));    // idempotent
  EXPECT_FALSE(chassis.attach({0, 0}, 1));   // already attached elsewhere
}

TEST_F(ChassisFixture, DetachAndReattachElsewhere) {
  ASSERT_TRUE(chassis.setDrawerMode(0, DrawerMode::Advanced));
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  ASSERT_TRUE(chassis.connectHost(1, hostB, "hostB"));
  addGpu({0, 0});
  ASSERT_TRUE(chassis.attach({0, 0}, 0));
  EXPECT_TRUE(chassis.detach({0, 0}));
  EXPECT_FALSE(chassis.detach({0, 0}));  // already detached
  EXPECT_TRUE(chassis.attach({0, 0}, 1));
  EXPECT_EQ(chassis.assignedPort({0, 0}), 1);
}

TEST_F(ChassisFixture, RemoveDeviceRequiresDetach) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  addGpu({0, 0});
  ASSERT_TRUE(chassis.attach({0, 0}, 0));
  EXPECT_FALSE(chassis.removeDevice({0, 0}));
  ASSERT_TRUE(chassis.detach({0, 0}));
  EXPECT_TRUE(chassis.removeDevice({0, 0}));
  EXPECT_FALSE(chassis.slot({0, 0}).occupied);
  EXPECT_FALSE(chassis.removeDevice({0, 0}));  // now empty
}

TEST_F(ChassisFixture, ModeDowngradeBlockedWhileAttached) {
  ASSERT_TRUE(chassis.setDrawerMode(0, DrawerMode::Advanced));
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  addGpu({0, 0});
  ASSERT_TRUE(chassis.attach({0, 0}, 0));
  EXPECT_FALSE(chassis.setDrawerMode(0, DrawerMode::Standard));
  ASSERT_TRUE(chassis.detach({0, 0}));
  EXPECT_TRUE(chassis.setDrawerMode(0, DrawerMode::Standard));
}

TEST_F(ChassisFixture, DisconnectHostRequiresNoAssignments) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  addGpu({0, 0});
  ASSERT_TRUE(chassis.attach({0, 0}, 0));
  EXPECT_FALSE(chassis.disconnectHost(0));
  ASSERT_TRUE(chassis.detach({0, 0}));
  EXPECT_TRUE(chassis.disconnectHost(0));
  EXPECT_FALSE(chassis.hostPort(0).connected);
  // The fabric path is gone.
  EXPECT_FALSE(topo.route(hostA, chassis.slot({0, 0}).device_node).has_value());
}

TEST_F(ChassisFixture, ResourceListReflectsAssignments) {
  ASSERT_TRUE(chassis.connectHost(0, hostA, "alice"));
  addGpu({0, 0});
  addGpu({0, 1});
  ASSERT_TRUE(chassis.attach({0, 0}, 0));
  const auto rows = chassis.resourceList();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].host_name, "alice");
  EXPECT_EQ(rows[1].host_name, "");
  EXPECT_EQ(rows[0].link_speed, "PCI-e 4.0 x16");
}

TEST_F(ChassisFixture, EventsReachTheBmc) {
  Bmc bmc(sim, chassis, "SER-1");
  ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));
  addGpu({0, 0});
  ASSERT_TRUE(chassis.attach({0, 0}, 0));
  ASSERT_TRUE(chassis.detach({0, 0}));
  EXPECT_GE(bmc.eventLog().size(), 4u);
}

}  // namespace
}  // namespace composim::falcon
