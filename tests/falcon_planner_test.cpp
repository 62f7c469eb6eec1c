// Tests for the allocation planner (mode-aware resource placement).
#include <gtest/gtest.h>

#include "falcon/allocation_planner.hpp"

namespace composim::falcon {
namespace {

struct PlannerFixture : ::testing::Test {
  Simulator sim;
  fabric::Topology topo;
  FalconChassis chassis{sim, topo, "falcon0"};
  fabric::NodeId hostA = topo.addNode("hostA", fabric::NodeKind::CpuRootComplex);
  fabric::NodeId hostB = topo.addNode("hostB", fabric::NodeKind::CpuRootComplex);

  void SetUp() override {
    ASSERT_TRUE(chassis.connectHost(0, hostA, "hostA"));  // H1, drawer 0
    ASSERT_TRUE(chassis.connectHost(1, hostB, "hostB"));  // H2, drawer 0
    for (int s = 0; s < 6; ++s) {
      const std::string name = std::string("g").append(std::to_string(s));
      const fabric::NodeId n = topo.addNode(name, fabric::NodeKind::Gpu);
      ASSERT_TRUE(chassis.installDevice({0, s}, DeviceType::Gpu, name, n));
    }
    const fabric::NodeId n = topo.addNode("nv", fabric::NodeKind::Storage);
    ASSERT_TRUE(chassis.installDevice({0, 7}, DeviceType::Nvme, "nv", n));
  }
};

TEST_F(PlannerFixture, SingleTenantFitsInStandardMode) {
  const auto plan = planAllocation(chassis, {{0, 4, 1}});
  ASSERT_TRUE(plan.feasible) << plan.reason;
  EXPECT_EQ(plan.attaches.size(), 5u);
  EXPECT_TRUE(plan.mode_changes_to_advanced.empty());
  EXPECT_TRUE(applyAllocation(chassis, plan));
  EXPECT_EQ(chassis.devicesAssignedTo(0).size(), 5u);
}

TEST_F(PlannerFixture, TwoTenantsSplitInHalvesUnderStandard) {
  // hostA wants 3 GPUs, hostB wants 2: halves force A into slots 0-3 and
  // B into 4-7; the NVMe in slot 7 belongs to B's half.
  const auto plan = planAllocation(chassis, {{0, 3, 0}, {1, 2, 1}});
  ASSERT_TRUE(plan.feasible) << plan.reason;
  EXPECT_TRUE(plan.mode_changes_to_advanced.empty());
  for (const auto& a : plan.attaches) {
    if (a.port == 0) {
      EXPECT_LT(a.slot.index, 4);
    }
    if (a.port == 1) {
      EXPECT_GE(a.slot.index, 4);
    }
  }
  EXPECT_TRUE(applyAllocation(chassis, plan));
}

TEST_F(PlannerFixture, EscalatesToAdvancedWhenHalvesBlock) {
  // hostA wants 5 GPUs: impossible in Standard halves beside hostB's 1,
  // feasible in Advanced.
  const auto plan = planAllocation(chassis, {{0, 5, 0}, {1, 1, 0}});
  ASSERT_TRUE(plan.feasible) << plan.reason;
  ASSERT_EQ(plan.mode_changes_to_advanced.size(), 1u);
  EXPECT_EQ(plan.mode_changes_to_advanced[0], 0);
  EXPECT_TRUE(applyAllocation(chassis, plan));
  EXPECT_EQ(chassis.drawerMode(0), DrawerMode::Advanced);
  EXPECT_EQ(chassis.devicesAssignedTo(0).size(), 5u);
  EXPECT_EQ(chassis.devicesAssignedTo(1).size(), 1u);
}

TEST_F(PlannerFixture, InfeasibleWhenInventoryShort) {
  const auto plan = planAllocation(chassis, {{0, 7, 0}});  // only 6 GPUs
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.reason.find("drawer 0"), std::string::npos);
  EXPECT_TRUE(plan.attaches.empty());
  EXPECT_FALSE(applyAllocation(chassis, plan));
}

TEST_F(PlannerFixture, RejectsDisconnectedPortAndBadInput) {
  EXPECT_FALSE(planAllocation(chassis, {{2, 1, 0}}).feasible);  // H3 empty
  EXPECT_FALSE(planAllocation(chassis, {{9, 1, 0}}).feasible);
  EXPECT_FALSE(planAllocation(chassis, {{0, -1, 0}}).feasible);
}

TEST_F(PlannerFixture, AccountsForExistingAssignments) {
  ASSERT_TRUE(chassis.attach({0, 0}, 0));
  // Slot 0 is taken; hostB asking for 6 GPUs can't be satisfied (5 free).
  EXPECT_FALSE(planAllocation(chassis, {{1, 6, 0}}).feasible);
  // 5 is fine in Advanced (two ports, arbitrary slots).
  const auto plan = planAllocation(chassis, {{1, 5, 0}});
  ASSERT_TRUE(plan.feasible) << plan.reason;
}

TEST_F(PlannerFixture, EmptyRequestIsTriviallyFeasible) {
  const auto plan = planAllocation(chassis, {});
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.attaches.empty());
  EXPECT_TRUE(applyAllocation(chassis, plan));
}

}  // namespace
}  // namespace composim::falcon
