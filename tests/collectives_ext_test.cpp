// Tests for the collective extensions: all-to-all, barrier, and
// concurrent-communicator behaviour.
#include <gtest/gtest.h>

#include "collectives/communicator.hpp"
#include "fabric/link_catalog.hpp"
#include "sim/units.hpp"

namespace composim::collectives {
namespace {

struct Star {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net{sim, topo};
  std::vector<fabric::NodeId> gpus;

  explicit Star(int n) {
    const auto sw = topo.addNode("sw", fabric::NodeKind::PcieSwitch);
    const auto spec = fabric::catalog::pcie4_x16_slot();
    for (int i = 0; i < n; ++i) {
      const auto g = topo.addNode(std::string("g").append(std::to_string(i)),
                                  fabric::NodeKind::Gpu);
      topo.addDuplexLink(g, sw, spec.capacityPerDirection, spec.latency, spec.kind);
      gpus.push_back(g);
    }
  }
};

TEST(AllToAll, MovesNTimesNMinusOneShards) {
  Star s(4);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  CollectiveResult res;
  comm.allToAll(units::MiB(8), [&](const CollectiveResult& r) { res = r; });
  s.sim.run();
  EXPECT_EQ(res.bytes_on_fabric, 12 * units::MiB(8));  // 4*3 shards
  EXPECT_GT(res.duration(), 0.0);
}

TEST(AllToAll, TimeBoundedByPortBandwidth) {
  Star s(8);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  const Bytes shard = units::MiB(16);
  CollectiveResult res;
  comm.allToAll(shard, [&](const CollectiveResult& r) { res = r; });
  s.sim.run();
  // Every rank must push 7 shards through its own uplink; the uplink rate
  // bounds the completion time from below.
  const double cap = fabric::catalog::pcie4_x16_slot().capacityPerDirection;
  const double lower = 7.0 * static_cast<double>(shard) / cap;
  EXPECT_GE(res.duration(), lower * 0.99);
  EXPECT_LE(res.duration(), lower * 2.0);
}

TEST(AllToAll, SingleRankIsFree) {
  Star s(1);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  bool done = false;
  comm.allToAll(units::MiB(1), [&](const CollectiveResult&) { done = true; });
  s.sim.run();
  EXPECT_TRUE(done);
}

TEST(Barrier, CompletesInMicroseconds) {
  Star s(8);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  CollectiveResult res;
  comm.barrier([&](const CollectiveResult& r) { res = r; });
  s.sim.run();
  EXPECT_GT(res.duration(), 0.0);
  EXPECT_LT(res.duration(), units::milliseconds(2));
  EXPECT_EQ(res.payload, 0);
}

TEST(Barrier, SerializesWithOtherCollectives) {
  Star s(4);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  std::vector<int> order;
  comm.allReduce(units::MiB(64), [&](const CollectiveResult&) { order.push_back(1); });
  comm.barrier([&](const CollectiveResult&) { order.push_back(2); });
  comm.allReduce(units::MiB(64), [&](const CollectiveResult&) { order.push_back(3); });
  s.sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ConcurrentCommunicators, IndependentGroupsOverlap) {
  // Two disjoint 4-GPU groups behind separate switches: their collectives
  // run concurrently (separate communicators are separate streams).
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net(sim, topo);
  const auto spec = fabric::catalog::pcie4_x16_slot();
  std::vector<fabric::NodeId> groupA, groupB;
  for (int g = 0; g < 2; ++g) {
    const auto sw = topo.addNode("sw" + std::to_string(g), fabric::NodeKind::PcieSwitch);
    for (int i = 0; i < 4; ++i) {
      const auto n = topo.addNode(
          std::string("g").append(std::to_string(g)) + std::to_string(i),
                                  fabric::NodeKind::Gpu);
      topo.addDuplexLink(n, sw, spec.capacityPerDirection, spec.latency, spec.kind);
      (g == 0 ? groupA : groupB).push_back(n);
    }
  }
  Communicator commA(sim, net, topo, groupA);
  Communicator commB(sim, net, topo, groupB);
  SimTime endA = 0.0, endB = 0.0;
  const SimTime start = sim.now();
  commA.allReduce(units::MiB(128), [&](const CollectiveResult& r) { endA = r.end; });
  commB.allReduce(units::MiB(128), [&](const CollectiveResult& r) { endB = r.end; });
  sim.run();
  // Disjoint fabric: both finish in one collective's time, not two.
  EXPECT_NEAR(endA - start, endB - start, 1e-9);
  Communicator probe(sim, net, topo, groupA);
  SimTime alone = 0.0;
  probe.allReduce(units::MiB(128),
                  [&](const CollectiveResult& r) { alone = r.duration(); });
  sim.run();
  EXPECT_NEAR(endA - start, alone, alone * 0.05);
}

}  // namespace
}  // namespace composim::collectives
