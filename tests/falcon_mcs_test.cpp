// Tests for the Management Center Server: multi-tenant authorization,
// ownership, audit, configuration import/export (paper §II-D).
#include <gtest/gtest.h>

#include "falcon/mcs.hpp"

namespace composim::falcon {
namespace {

struct McsFixture : ::testing::Test {
  Simulator sim;
  fabric::Topology topo;
  FalconChassis chassis{sim, topo, "falcon0"};
  Bmc bmc{sim, chassis, "FAL-0001"};
  Mcs mcs{chassis};
  fabric::NodeId host = topo.addNode("host", fabric::NodeKind::CpuRootComplex);

  void SetUp() override {
    ASSERT_TRUE(mcs.addUser("admin", Role::Administrator));
    ASSERT_TRUE(mcs.addUser("alice", Role::User));
    ASSERT_TRUE(mcs.addUser("bob", Role::User));
    ASSERT_TRUE(chassis.connectHost(0, host, "host"));
    for (int s = 0; s < 4; ++s) {
      const std::string name = std::string("g").append(std::to_string(s));
      const fabric::NodeId n = topo.addNode(name, fabric::NodeKind::Gpu);
      ASSERT_TRUE(chassis.installDevice({0, s}, DeviceType::Gpu, name, n));
    }
  }
};

TEST_F(McsFixture, UserLifecycle) {
  EXPECT_FALSE(mcs.addUser("alice", Role::User));  // duplicate
  EXPECT_FALSE(mcs.addUser("", Role::User));
  EXPECT_EQ(mcs.roleOf("alice"), Role::User);
  EXPECT_EQ(mcs.roleOf("admin"), Role::Administrator);
  EXPECT_FALSE(mcs.roleOf("nobody").has_value());
  EXPECT_FALSE(mcs.removeUser("alice", "bob"));    // non-admin
  EXPECT_TRUE(mcs.removeUser("admin", "bob"));
  EXPECT_FALSE(mcs.roleOf("bob").has_value());
}

TEST_F(McsFixture, ClaimAndReleaseOwnership) {
  EXPECT_TRUE(mcs.claimResource("alice", {0, 0}));
  EXPECT_EQ(mcs.ownerOf({0, 0}), "alice");
  EXPECT_FALSE(mcs.claimResource("bob", {0, 0}));        // already owned
  EXPECT_FALSE(mcs.claimResource("alice", {0, 7}));      // empty slot
  EXPECT_FALSE(mcs.claimResource("ghost", {0, 1}));      // unknown user
  EXPECT_FALSE(mcs.releaseResource("bob", {0, 0}));      // not the owner
  EXPECT_TRUE(mcs.releaseResource("alice", {0, 0}));
  EXPECT_TRUE(mcs.claimResource("bob", {0, 0}));
}

TEST_F(McsFixture, AdminMayClaimForOthersUsersMayNot) {
  EXPECT_TRUE(mcs.claimResource("admin", {0, 0}, "alice"));
  EXPECT_EQ(mcs.ownerOf({0, 0}), "alice");
  EXPECT_FALSE(mcs.claimResource("bob", {0, 1}, "alice"));
  EXPECT_TRUE(mcs.releaseResource("admin", {0, 0}));  // admin override
}

TEST_F(McsFixture, IsolationBlocksCrossTenantOperations) {
  ASSERT_TRUE(mcs.claimResource("alice", {0, 0}));
  // Bob cannot operate alice's resource; alice can.
  EXPECT_FALSE(mcs.attach("bob", {0, 0}, 0));
  EXPECT_TRUE(mcs.attach("alice", {0, 0}, 0));
  EXPECT_FALSE(mcs.detach("bob", {0, 0}));
  EXPECT_TRUE(mcs.detach("alice", {0, 0}));
  // Unowned resources also require ownership for plain users.
  EXPECT_FALSE(mcs.attach("bob", {0, 1}, 0));
  // Admin bypasses ownership.
  EXPECT_TRUE(mcs.attach("admin", {0, 1}, 0));
}

TEST_F(McsFixture, DrawerModeIsAdminOnly) {
  EXPECT_FALSE(mcs.setDrawerMode("alice", 0, DrawerMode::Advanced));
  EXPECT_TRUE(mcs.setDrawerMode("admin", 0, DrawerMode::Advanced));
  EXPECT_EQ(chassis.drawerMode(0), DrawerMode::Advanced);
}

TEST_F(McsFixture, EventLogExportIsAdminOnly) {
  std::vector<BmcEvent> events;
  EXPECT_FALSE(mcs.exportEventLog("alice", bmc, events));
  EXPECT_TRUE(mcs.exportEventLog("admin", bmc, events));
  EXPECT_GE(events.size(), 1u);  // install/connect events
}

TEST_F(McsFixture, AuditRecordsDenialsAndGrants) {
  ASSERT_TRUE(mcs.claimResource("alice", {0, 0}));
  mcs.attach("bob", {0, 0}, 0);   // denied
  mcs.attach("alice", {0, 0}, 0); // granted
  const auto& log = mcs.auditLog();
  int denied = 0, allowed = 0;
  for (const auto& rec : log) {
    if (rec.operation == "attach") (rec.allowed ? allowed : denied)++;
  }
  EXPECT_EQ(denied, 1);
  EXPECT_EQ(allowed, 1);
}

TEST_F(McsFixture, ConfigExportImportRoundTrip) {
  ASSERT_TRUE(mcs.claimResource("alice", {0, 0}));
  ASSERT_TRUE(mcs.attach("alice", {0, 0}, 0));
  ASSERT_TRUE(mcs.claimResource("bob", {0, 1}));
  const Json config = mcs.exportConfig();

  // Tear down, then restore.
  ASSERT_TRUE(mcs.detach("alice", {0, 0}));
  ASSERT_TRUE(mcs.releaseResource("alice", {0, 0}));
  ASSERT_TRUE(mcs.importConfig("admin", config));
  EXPECT_EQ(chassis.assignedPort({0, 0}), 0);
  EXPECT_EQ(mcs.ownerOf({0, 0}), "alice");
  EXPECT_EQ(mcs.ownerOf({0, 1}), "bob");
}

TEST_F(McsFixture, ImportRequiresAdminAndMatchingInventory) {
  const Json config = mcs.exportConfig();
  EXPECT_FALSE(mcs.importConfig("alice", config));

  Json tampered = Json::parse(config.dump());
  // drawers[0].slots[0].device <- a device that is not installed.
  Json& drawers = tampered.asObject()[1].second;
  Json& slots = drawers.asArray()[0].asObject()[2].second;
  Json& slot0 = slots.asArray()[0];
  slot0.set("device", "not-the-installed-device");
  slot0.set("port", 0);
  EXPECT_FALSE(mcs.importConfig("admin", tampered));
}

TEST_F(McsFixture, ImportRejectsMalformedDocument) {
  Json garbage = Json::object();
  garbage.set("drawers", "not-an-array");
  EXPECT_FALSE(mcs.importConfig("admin", garbage));
}

}  // namespace
}  // namespace composim::falcon
