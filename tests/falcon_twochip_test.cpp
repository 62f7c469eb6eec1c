// Tests for the two-switch-chip drawer structure and the paper's
// "one host with two connections to the same drawer" mode (§III-B.2):
// faster host<->device aggregate, slower device<->device across halves.
#include <gtest/gtest.h>

#include "fabric/bandwidth_probe.hpp"
#include "falcon/chassis.hpp"
#include "sim/units.hpp"

namespace composim::falcon {
namespace {

struct TwoChipFixture : ::testing::Test {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net{sim, topo};
  FalconChassis chassis{sim, topo, "falcon0"};
  fabric::NodeId host = topo.addNode("host", fabric::NodeKind::CpuRootComplex);
  std::vector<fabric::NodeId> gpus;

  void installEight() {
    for (int s = 0; s < 8; ++s) {
      const std::string name = std::string("g").append(std::to_string(s));
      const fabric::NodeId n = topo.addNode(name, fabric::NodeKind::Gpu);
      ASSERT_TRUE(chassis.installDevice({0, s}, DeviceType::Gpu, name, n));
      gpus.push_back(n);
    }
  }
};

TEST_F(TwoChipFixture, SlotsMapToHalves) {
  installEight();
  // Same-half peers: two hops (slot links only).
  auto sameHalf = topo.route(gpus[0], gpus[3]);
  ASSERT_TRUE(sameHalf.has_value());
  EXPECT_EQ(sameHalf->links.size(), 2u);
  // Cross-half peers traverse the inter-chip link: three hops.
  auto crossHalf = topo.route(gpus[0], gpus[4]);
  ASSERT_TRUE(crossHalf.has_value());
  EXPECT_EQ(crossHalf->links.size(), 3u);
  EXPECT_GT(crossHalf->latency, sameHalf->latency);
}

TEST_F(TwoChipFixture, TwoConnectionsDoubleHostBandwidth) {
  installEight();
  // Mode of Fig 4 (§III-B.2): the same host takes H1 (chip 0) and H2
  // (chip 1) of drawer 0.
  ASSERT_TRUE(chassis.connectHost(0, host, "host"));
  ASSERT_TRUE(chassis.connectHost(1, host, "host"));
  // Concurrent host->device transfers to both halves ride separate
  // adapters: aggregate ~2x one adapter.
  const Bytes v = units::GiB(1);
  SimTime end0 = 0.0, end4 = 0.0;
  net.startFlow(host, gpus[0], v, [&](const fabric::FlowResult& r) { end0 = r.end; });
  net.startFlow(host, gpus[4], v, [&](const fabric::FlowResult& r) { end4 = r.end; });
  sim.run();
  const double aggregate = 2.0 * static_cast<double>(v) / std::max(end0, end4);
  EXPECT_NEAR(units::to_GBps(aggregate), 2.0 * 9.82, 0.3);
}

TEST_F(TwoChipFixture, CrossHalfPeerTrafficPaysTheInterChipLink) {
  installEight();
  ASSERT_TRUE(chassis.connectHost(0, host, "host"));
  ASSERT_TRUE(chassis.connectHost(1, host, "host"));
  const auto same = fabric::measureP2p(sim, net, gpus[0], gpus[1]);
  const auto cross = fabric::measureP2p(sim, net, gpus[0], gpus[5]);
  // "...but may slow communications between devices in the two halves."
  EXPECT_GT(cross.write_latency, same.write_latency);
  EXPECT_LE(units::to_GBps(cross.unidirectional),
            units::to_GBps(same.unidirectional) + 1e-9);
  // Two cross-half flows share the single inter-chip link; two same-half
  // flows do not contend.
  const SimTime start = sim.now();
  SimTime endA = 0.0, endB = 0.0;
  const Bytes v = units::GiB(1);
  net.startFlow(gpus[0], gpus[4], v, [&](const fabric::FlowResult& r) { endA = r.end; });
  net.startFlow(gpus[1], gpus[5], v, [&](const fabric::FlowResult& r) { endB = r.end; });
  sim.run();
  const double shared = units::to_GBps(2.0 * static_cast<double>(v) /
                                       (std::max(endA, endB) - start));
  EXPECT_NEAR(shared, 12.25, 0.2);  // both squeezed through one x16 hop
}

TEST_F(TwoChipFixture, TableIvCalibrationUnaffected) {
  // The Table IV F-F pair (slots 0 and 1) stays on one chip: 2.08 us and
  // 24.5 GB/s bidirectional must survive the two-chip refactor.
  installEight();
  ASSERT_TRUE(chassis.connectHost(0, host, "host"));
  const auto ff = fabric::measureP2p(sim, net, gpus[0], gpus[1]);
  EXPECT_NEAR(units::to_us(ff.write_latency), 2.08, 0.01);
  EXPECT_NEAR(units::to_GBps(ff.bidirectional), 24.5, 0.1);
}

}  // namespace
}  // namespace composim::falcon
