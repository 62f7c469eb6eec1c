// Randomized-operation fuzz of the chassis management plane: whatever
// sequence of attach/detach/mode/install/remove operations a tenant
// throws at it, the chassis invariants must hold.
#include <gtest/gtest.h>

#include <set>

#include "fabric/failures.hpp"
#include "falcon/chassis.hpp"
#include "sim/random.hpp"

namespace composim::falcon {
namespace {

class ChassisFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ChassisFuzz, InvariantsSurviveRandomOperations) {
  Simulator sim;
  fabric::Topology topo;
  FalconChassis chassis(sim, topo, "fuzz");
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);

  // Hosts on all four ports.
  for (int p = 0; p < FalconChassis::kHostPorts; ++p) {
    const auto h = topo.addNode(std::string("h").append(std::to_string(p)),
                                fabric::NodeKind::CpuRootComplex);
    ASSERT_TRUE(chassis.connectHost(
        p, h, std::string("h").append(std::to_string(p))));
  }

  int installed = 0;
  for (int step = 0; step < 400; ++step) {
    const SlotId slot{static_cast<int>(rng.uniformInt(0, 1)),
                      static_cast<int>(rng.uniformInt(0, 7))};
    switch (rng.uniformInt(0, 4)) {
      case 0: {  // install
        const std::string name = "dev" + std::to_string(step);
        const auto n = topo.addNode(name, fabric::NodeKind::Gpu);
        if (chassis.installDevice(slot, DeviceType::Gpu, name, n)) ++installed;
        break;
      }
      case 1:  // remove
        chassis.removeDevice(slot);
        break;
      case 2:  // attach to a random port
        chassis.attach(slot, static_cast<int>(rng.uniformInt(0, 3)));
        break;
      case 3:  // detach
        chassis.detach(slot);
        break;
      case 4:  // flip mode
        chassis.setDrawerMode(static_cast<int>(rng.uniformInt(0, 1)),
                              rng.uniform() < 0.5 ? DrawerMode::Standard
                                                  : DrawerMode::Advanced);
        break;
    }

    // Invariants after every operation:
    for (int d = 0; d < FalconChassis::kDrawers; ++d) {
      std::set<int> ports;
      for (int s = 0; s < FalconChassis::kSlotsPerDrawer; ++s) {
        const auto& info = chassis.slot({d, s});
        if (!info.occupied) {
          // Empty slots are never assigned.
          ASSERT_EQ(info.assigned_port, -1);
          continue;
        }
        if (info.assigned_port >= 0) {
          // Assignments only to connected ports wired to this drawer.
          const auto& port = chassis.hostPort(info.assigned_port);
          ASSERT_TRUE(port.connected);
          ASSERT_EQ(port.drawer, d);
          ports.insert(info.assigned_port);
        }
      }
      // Host-count limits respected under the current mode.
      const int limit = chassis.drawerMode(d) == DrawerMode::Standard
                            ? FalconChassis::kMaxHostsPerDrawerStandard
                            : FalconChassis::kMaxHostsPerDrawerAdvanced;
      ASSERT_LE(static_cast<int>(ports.size()), limit);
      // Standard mode with two hosts: the half-split holds.
      if (chassis.drawerMode(d) == DrawerMode::Standard && ports.size() == 2) {
        const int lo = *ports.begin();
        for (int s = 0; s < FalconChassis::kSlotsPerDrawer; ++s) {
          const auto& info = chassis.slot({d, s});
          if (!info.occupied || info.assigned_port < 0) continue;
          const bool lowerHalf = s < FalconChassis::kSlotsPerDrawer / 2;
          ASSERT_EQ(info.assigned_port == lo, lowerHalf)
              << "drawer " << d << " slot " << s;
        }
      }
    }
  }
  EXPECT_GT(installed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChassisFuzz, ::testing::Range(1, 11));

// Same management plane, now under fire: random fabric faults (flaps,
// error bursts, device falloffs) interleaved with attach/detach/install
// while the attach path itself fails transiently. Chassis invariants must
// hold after every event, and every operation must report an honest
// Status — a Retryable attach in particular must leave the slot
// unassigned (no silent success).
class ChassisFaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ChassisFaultFuzz, InvariantsAndStatusCodesSurviveFaultStorm) {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net(sim, topo);
  FalconChassis chassis(sim, topo, "fuzz");
  fabric::FaultInjector faults(sim, topo, net,
                               static_cast<std::uint64_t>(GetParam()) * 131);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  chassis.setTransientAttachFailureRate(
      0.3, static_cast<std::uint64_t>(GetParam()));

  for (int p = 0; p < FalconChassis::kHostPorts; ++p) {
    const auto h = topo.addNode(std::string("h").append(std::to_string(p)),
                                fabric::NodeKind::CpuRootComplex);
    ASSERT_TRUE(chassis.connectHost(
        p, h, std::string("h").append(std::to_string(p))));
  }

  int retryable_attaches = 0;
  int ok_attaches = 0;
  const auto checkInvariants = [&] {
    for (int d = 0; d < FalconChassis::kDrawers; ++d) {
      for (int s = 0; s < FalconChassis::kSlotsPerDrawer; ++s) {
        const auto& info = chassis.slot({d, s});
        if (!info.occupied) {
          ASSERT_EQ(info.assigned_port, -1);
          continue;
        }
        if (info.assigned_port >= 0) {
          const auto& port = chassis.hostPort(info.assigned_port);
          ASSERT_TRUE(port.connected);
          ASSERT_EQ(port.drawer, d);
        }
      }
    }
  };

  for (int step = 0; step < 300; ++step) {
    const SimTime at = 0.01 * (step + 1);
    sim.schedule(at, [&, step] {
      const SlotId slot{static_cast<int>(rng.uniformInt(0, 1)),
                        static_cast<int>(rng.uniformInt(0, 7))};
      switch (rng.uniformInt(0, 5)) {
        case 0: {
          const std::string name = "dev" + std::to_string(step);
          const auto n = topo.addNode(name, fabric::NodeKind::Gpu);
          const OpResult r = chassis.installDevice(slot, DeviceType::Gpu, name, n);
          // Honest status: success iff the slot now holds this device.
          ASSERT_EQ(static_cast<bool>(r),
                    chassis.slot(slot).device_name == name);
          break;
        }
        case 1:
          chassis.removeDevice(slot);
          break;
        case 2: {
          const int port = static_cast<int>(rng.uniformInt(0, 3));
          const int before = chassis.slot(slot).assigned_port;
          const OpResult r = chassis.attach(slot, port);
          if (r) {
            ++ok_attaches;
            ASSERT_EQ(chassis.slot(slot).assigned_port, port);
          } else if (r.code == StatusCode::Retryable) {
            // Transient management-plane failure: state must be untouched
            // so the caller can retry the identical request.
            ++retryable_attaches;
            ASSERT_EQ(chassis.slot(slot).assigned_port, before);
          } else {
            ASSERT_EQ(chassis.slot(slot).assigned_port, before);
          }
          break;
        }
        case 3:
          chassis.detach(slot);
          break;
        case 4: {
          // Fault the slot's fabric links; management state must not care.
          const auto& info = chassis.slot(slot);
          if (info.occupied && info.link_up != fabric::kInvalidLink) {
            switch (rng.uniformInt(0, 2)) {
              case 0:
                faults.scheduleLinkFlap(info.link_up, 0.001, 0.05);
                break;
              case 1:
                faults.scheduleErrorBurst(info.link_up, 0.001,
                                          rng.uniformInt(1, 500));
                break;
              case 2:
                faults.scheduleDeviceFalloff(info.link_up, info.link_down,
                                             0.001);
                break;
            }
          }
          break;
        }
        case 5:
          chassis.setDrawerMode(static_cast<int>(rng.uniformInt(0, 1)),
                                rng.uniform() < 0.5 ? DrawerMode::Standard
                                                    : DrawerMode::Advanced);
          break;
      }
      checkInvariants();
    });
  }
  sim.run();
  checkInvariants();
  // The 30% transient rate must actually bite, and not eat every attach.
  EXPECT_GT(retryable_attaches, 0);
  EXPECT_GT(ok_attaches, 0);
  // Fault history is append-only and time-ordered (replayable log).
  for (std::size_t i = 1; i < faults.history().size(); ++i) {
    EXPECT_LE(faults.history()[i - 1].time, faults.history()[i].time);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChassisFaultFuzz, ::testing::Range(1, 6));

}  // namespace
}  // namespace composim::falcon
