// Tests for the NCCL-like collectives over the simulated fabric.
#include <gtest/gtest.h>

#include <cmath>

#include "collectives/communicator.hpp"
#include "core/composable_system.hpp"
#include "fabric/link_catalog.hpp"
#include "fabric/nvlink_mesh.hpp"
#include "sim/units.hpp"

namespace composim::collectives {
namespace {

using fabric::LinkKind;
using fabric::NodeId;
using fabric::NodeKind;

/// A PCIe star: N GPUs behind one switch (a Falcon drawer in miniature).
struct PcieStar {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net{sim, topo};
  std::vector<NodeId> gpus;

  explicit PcieStar(int n) {
    const NodeId sw = topo.addNode("sw", NodeKind::PcieSwitch);
    const auto spec = fabric::catalog::pcie4_x16_slot();
    for (int i = 0; i < n; ++i) {
      const NodeId g = topo.addNode(std::string("g").append(std::to_string(i)),
                                    NodeKind::Gpu);
      topo.addDuplexLink(g, sw, spec.capacityPerDirection, spec.latency, spec.kind);
      gpus.push_back(g);
    }
  }
};

/// An NVLink mesh of 8 GPUs (the local host in miniature).
struct NvlinkHost {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net{sim, topo};
  std::vector<NodeId> gpus;

  NvlinkHost() {
    for (int i = 0; i < 8; ++i) {
      gpus.push_back(topo.addNode(std::string("g").append(std::to_string(i)),
                                  NodeKind::Gpu));
    }
    fabric::buildHybridCubeMesh(topo, gpus);
  }
};

CollectiveResult runAllReduce(Simulator& sim, Communicator& comm, Bytes bytes,
                              Algorithm algo = Algorithm::Auto) {
  CollectiveResult out;
  bool done = false;
  comm.allReduce(bytes, [&](const CollectiveResult& r) {
    out = r;
    done = true;
  }, algo);
  sim.run();
  EXPECT_TRUE(done);
  return out;
}

TEST(Communicator, RejectsEmptyGroup) {
  PcieStar s(2);
  EXPECT_THROW(Communicator(s.sim, s.net, s.topo, {}), std::invalid_argument);
}

TEST(Communicator, SingleRankAllReduceIsFree) {
  PcieStar s(1);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  const auto r = runAllReduce(s.sim, comm, units::MiB(100));
  EXPECT_LT(r.duration(), units::microseconds(1));
  EXPECT_EQ(r.bytes_on_fabric, 0);
}

TEST(Communicator, RingAllReduceTimeMatchesAlphaBetaModel) {
  PcieStar s(4);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  const Bytes v = units::MiB(256);
  const auto r = runAllReduce(s.sim, comm, v, Algorithm::Ring);
  // 2(N-1) steps of V/N chunks at the protocol-derated slot rate.
  const double rate = 0.62 * fabric::catalog::pcie4_x16_slot().capacityPerDirection;
  const double expected = 6.0 * (static_cast<double>(v) / 4.0) / rate;
  EXPECT_NEAR(r.duration(), expected, expected * 0.05);
}

TEST(Communicator, RingMovesExpectedFabricBytes) {
  PcieStar s(8);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  const Bytes v = units::MiB(64);
  const auto r = runAllReduce(s.sim, comm, v, Algorithm::Ring);
  // Each of 8 ranks forwards 2(N-1) chunks of V/N.
  const double expected = 8.0 * 14.0 * (static_cast<double>(v) / 8.0);
  EXPECT_NEAR(static_cast<double>(r.bytes_on_fabric), expected, expected * 0.01);
}

TEST(Communicator, BusBandwidthApproachesProtocolRate) {
  PcieStar s(8);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  const auto r = runAllReduce(s.sim, comm, units::GiB(1), Algorithm::Ring);
  const double busbw = r.busBandwidth(8);
  const double proto = 0.62 * fabric::catalog::pcie4_x16_slot().capacityPerDirection;
  EXPECT_GT(busbw, proto * 0.9);
  EXPECT_LE(busbw, proto * 1.01);
}

TEST(Communicator, NvlinkIslandDetection) {
  NvlinkHost h;
  Communicator comm(h.sim, h.net, h.topo, h.gpus);
  const auto islands = comm.nvlinkIslands();
  ASSERT_EQ(islands.size(), 1u);
  EXPECT_EQ(islands[0].size(), 8u);
}

TEST(Communicator, PcieGroupIsAllSingletonIslands) {
  PcieStar s(4);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  EXPECT_EQ(comm.nvlinkIslands().size(), 4u);
  EXPECT_EQ(comm.chooseAlgorithm(), Algorithm::Ring);
}

TEST(Communicator, RingOrderFollowsWideNvlinkEdges) {
  NvlinkHost h;
  Communicator comm(h.sim, h.net, h.topo, h.gpus);
  std::vector<int> members{0, 1, 2, 3, 4, 5, 6, 7};
  const auto order = comm.ringOrder(members);
  ASSERT_EQ(order.size(), 8u);
  // Every consecutive hop (and the closing hop) must be a direct NVLink
  // edge — no hop may detour through an intermediate GPU.
  for (std::size_t i = 0; i < order.size(); ++i) {
    const NodeId a = h.gpus[static_cast<std::size_t>(order[i])];
    const NodeId b = h.gpus[static_cast<std::size_t>(order[(i + 1) % 8])];
    auto r = h.topo.route(a, b);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->links.size(), 1u)
        << "hop " << order[i] << "->" << order[(i + 1) % 8] << " detours";
  }
}

TEST(Communicator, NvlinkRingFasterThanPcieRing) {
  NvlinkHost h;
  PcieStar s(8);
  Communicator nv(h.sim, h.net, h.topo, h.gpus);
  Communicator pc(s.sim, s.net, s.topo, s.gpus);
  const Bytes v = units::MiB(512);
  const auto rn = runAllReduce(h.sim, nv, v, Algorithm::Ring);
  const auto rp = runAllReduce(s.sim, pc, v, Algorithm::Ring);
  EXPECT_LT(rn.duration() * 2.5, rp.duration());
}

TEST(Communicator, TreeCompletesAndIsSlowerThanRingForLargePayload) {
  PcieStar s(8);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  const Bytes v = units::MiB(256);
  const auto ring = runAllReduce(s.sim, comm, v, Algorithm::Ring);
  const auto tree = runAllReduce(s.sim, comm, v, Algorithm::Tree);
  EXPECT_GT(tree.duration(), ring.duration());
}

TEST(Communicator, HierarchicalWinsOnTwoIslandTopology) {
  // Two 4-GPU NVLink quads joined by one narrow PCIe path — the case
  // where aggregating inside the islands first pays off.
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net(sim, topo);
  std::vector<NodeId> gpus;
  for (int q = 0; q < 2; ++q) {
    std::vector<NodeId> quad;
    for (int i = 0; i < 4; ++i) {
      quad.push_back(topo.addNode("q" + std::to_string(q) + "g" + std::to_string(i),
                                  NodeKind::Gpu));
    }
    fabric::buildHybridCubeMesh(topo, quad);
    for (NodeId g : quad) gpus.push_back(g);
  }
  const NodeId bridge = topo.addNode("bridge", NodeKind::PcieSwitch);
  const auto ha = fabric::catalog::hostAdapter();
  for (int q = 0; q < 2; ++q) {
    topo.addDuplexLink(gpus[static_cast<std::size_t>(4 * q)], bridge,
                       ha.capacityPerDirection, ha.latency, ha.kind);
  }
  Communicator comm(sim, net, topo, gpus);
  EXPECT_EQ(comm.nvlinkIslands().size(), 2u);
  EXPECT_EQ(comm.chooseAlgorithm(), Algorithm::Hierarchical);
  const Bytes v = units::MiB(256);
  const auto hier = runAllReduce(sim, comm, v, Algorithm::Hierarchical);
  const auto flat = runAllReduce(sim, comm, v, Algorithm::Ring);
  EXPECT_LT(hier.duration(), flat.duration());
}

TEST(Communicator, BroadcastAndReduceComplete) {
  PcieStar s(8);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  int done = 0;
  comm.broadcast(units::MiB(32), 0, [&](const CollectiveResult&) { ++done; });
  comm.reduce(units::MiB(32), 0, [&](const CollectiveResult&) { ++done; });
  s.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(comm.collectivesCompleted(), 2u);
}

TEST(Communicator, OpsSerializeLikeOneCudaStream) {
  PcieStar s(4);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  const Bytes v = units::MiB(64);
  // Two ops issued back-to-back must take ~2x one op, not overlap.
  CollectiveResult alone = runAllReduce(s.sim, comm, v, Algorithm::Ring);
  SimTime both_end = 0.0;
  const SimTime start = s.sim.now();
  comm.allReduce(v, [](const CollectiveResult&) {}, Algorithm::Ring);
  comm.allReduce(v, [&](const CollectiveResult& r) { both_end = r.end; },
                 Algorithm::Ring);
  s.sim.run();
  EXPECT_NEAR(both_end - start, 2.0 * alone.duration(), alone.duration() * 0.1);
}

TEST(Communicator, NvlinkProtocolCapBindsOnlyOnAFlowAloneOnItsEdge) {
  // localGPUs' 8-GPU ring runs two channels over the same ring order, so
  // every NVLink edge on the ring carries two flows. Each flow's max-min
  // share is half the edge, below the 0.8 protocol cap: the channel split
  // sets the rate and the cap does not bind.
  core::ComposableSystem sys(core::SystemConfig::LocalGpus);
  std::vector<NodeId> ranks;
  for (const auto* g : sys.trainingGpus()) ranks.push_back(g->node());
  Communicator comm(sys.sim(), sys.network(), sys.topology(), ranks);
  ASSERT_EQ(comm.nvlinkIslands().size(), 1u);
  const auto order = comm.ringOrder({0, 1, 2, 3, 4, 5, 6, 7});
  ASSERT_EQ(sys.network().state().next_id, 1u);
  comm.allReduce(units::MiB(256), nullptr, Algorithm::Ring);
  // The first step of both channels is in flight: flow ids 1..8 are
  // channel 0's hops in ring order, 9..16 channel 1's.
  ASSERT_EQ(sys.network().activeFlows(), 16u);
  for (fabric::FlowId id = 1; id <= 16; ++id) {
    const std::size_t hop = static_cast<std::size_t>((id - 1) % 8);
    const auto& route = sys.topology().routeCached(
        ranks[static_cast<std::size_t>(order[hop])],
        ranks[static_cast<std::size_t>(order[(hop + 1) % 8])]);
    ASSERT_TRUE(route.has_value());
    ASSERT_EQ(route->links.size(), 1u);
    const auto& edge = sys.topology().link(route->links.front());
    ASSERT_EQ(edge.kind, LinkKind::NVLink);
    EXPECT_DOUBLE_EQ(sys.network().flowRate(id), edge.capacity / 2.0) << "flow " << id;
    EXPECT_LT(edge.capacity / 2.0, 0.8 * edge.capacity);
  }
  sys.sim().run();

  // A broadcast's first round is one flow with its edge to itself: there
  // the cap binds, at 0.8 of the edge.
  const fabric::FlowId bcast = sys.network().state().next_id;
  comm.broadcast(units::MiB(64), 0, nullptr);
  ASSERT_EQ(sys.network().activeFlows(), 1u);
  const auto& route = sys.topology().routeCached(ranks[0], ranks[1]);
  ASSERT_TRUE(route.has_value());
  ASSERT_EQ(route->links.size(), 1u);
  EXPECT_DOUBLE_EQ(sys.network().flowRate(bcast),
                   0.8 * sys.topology().link(route->links.front()).capacity);
  sys.sim().run();
}

TEST(Communicator, RingSurvivesALinkFailureMidStepAndItsRecordIsReused) {
  const Bytes v = units::MiB(256);
  SimTime clean = 0.0;
  {
    PcieStar ref(4);
    Communicator comm(ref.sim, ref.net, ref.topo, ref.gpus);
    clean = runAllReduce(ref.sim, comm, v, Algorithm::Ring).duration();
  }
  PcieStar s(4);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  bool done = false;
  comm.allReduce(v, [&](const CollectiveResult&) { done = true; }, Algorithm::Ring);
  s.sim.runUntil(clean / 12.0);  // mid first step (6 steps)
  ASSERT_EQ(s.net.activeFlows(), 4u);
  EXPECT_THROW(comm.state(), std::logic_error);
  // g0's uplink: the ring's flow out of g0 fails now, and every later
  // step's flow from g0 fails soft as unroutable.
  const fabric::LinkId uplink = s.topo.linksFrom(s.gpus[0]).front();
  s.net.failLink(uplink);
  s.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GE(s.net.flowsFailed(), 6u);  // one per step
  EXPECT_NO_THROW(comm.state());
  EXPECT_EQ(comm.collectivesCompleted(), 1u);

  // The next all-reduce runs on the pooled ring record the failed op
  // released, and on a healed fabric it takes exactly a clean op's time.
  s.topo.setLinkUp(uplink, true);
  s.net.notifyTopologyChanged();
  const auto failed_before = s.net.flowsFailed();
  const auto r = runAllReduce(s.sim, comm, v, Algorithm::Ring);
  EXPECT_NEAR(r.duration(), clean, clean * 1e-9);
  EXPECT_EQ(s.net.flowsFailed(), failed_before);
  EXPECT_NO_THROW(comm.state());
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

// Property: all-reduce duration is monotone nondecreasing in payload and
// bus bandwidth is bounded by the protocol-derated link rate.
class AllReducePayloadProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AllReducePayloadProperty, MonotoneAndBounded) {
  const auto [ranks, mib] = GetParam();
  PcieStar s(ranks);
  Communicator comm(s.sim, s.net, s.topo, s.gpus);
  const auto small = runAllReduce(s.sim, comm, units::MiB(mib), Algorithm::Ring);
  const auto big = runAllReduce(s.sim, comm, units::MiB(mib * 2), Algorithm::Ring);
  EXPECT_LT(small.duration(), big.duration());
  const double proto = 0.62 * fabric::catalog::pcie4_x16_slot().capacityPerDirection;
  EXPECT_LE(big.busBandwidth(ranks), proto * 1.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllReducePayloadProperty,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(8, 64, 256)));

}  // namespace
}  // namespace composim::collectives
