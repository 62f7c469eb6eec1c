// Conservation properties: bytes requested == bytes delivered == bytes
// counted on links, across randomized concurrent workloads; collective
// bus bandwidth bounded by theory across ring sizes.
#include <gtest/gtest.h>

#include "collectives/communicator.hpp"
#include "fabric/flow_network.hpp"
#include "fabric/link_catalog.hpp"
#include "sim/random.hpp"

namespace composim::fabric {
namespace {

class FlowConservation : public ::testing::TestWithParam<int> {};

TEST_P(FlowConservation, BytesDeliveredEqualBytesRequested) {
  Simulator sim;
  Topology topo;
  FlowNetwork net(sim, topo);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);

  // Random small fabric: hub-and-spoke with a few cross links.
  const NodeId hub = topo.addNode("hub", NodeKind::PcieSwitch);
  std::vector<NodeId> nodes;
  std::vector<LinkId> uplinks;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(topo.addNode(std::string("n").append(std::to_string(i)),
                                 NodeKind::Gpu));
    auto [up, down] = topo.addDuplexLink(
        nodes.back(), hub, units::GBps(rng.uniform(1.0, 8.0)), 1e-6,
        LinkKind::PCIe4);
    uplinks.push_back(up);
    (void)down;
  }
  topo.addDuplexLink(nodes[0], nodes[1], units::GBps(4.0), 1e-6, LinkKind::NVLink);

  Bytes requested = 0;
  Bytes delivered = 0;
  for (int f = 0; f < 25; ++f) {
    const auto s = static_cast<std::size_t>(rng.uniformInt(0, 4));
    auto d = static_cast<std::size_t>(rng.uniformInt(0, 4));
    if (d == s) d = (d + 1) % 5;
    const Bytes bytes = units::MiB(rng.uniformInt(1, 64));
    requested += bytes;
    // Stagger starts so arrivals/departures interleave with recomputes.
    sim.schedule(rng.uniform(0.0, 0.05), [&net, &nodes, &delivered, s, d, bytes] {
      net.startFlow(nodes[s], nodes[d], bytes,
                    [&delivered](const FlowResult& r) {
                      EXPECT_EQ(r.status, FlowStatus::Completed);
                      delivered += r.bytes;
                    });
    });
  }
  sim.run();
  EXPECT_EQ(delivered, requested);
  EXPECT_EQ(net.activeFlows(), 0u);
  EXPECT_EQ(net.flowsCompleted(), 25u);
  // Link byte counters carry at most rounding error per flow traversal.
  Bytes counted = 0;
  for (std::size_t l = 0; l < topo.linkCount(); ++l) {
    counted += topo.link(static_cast<LinkId>(l)).counters.bytes;
  }
  EXPECT_GE(counted, requested);  // every flow crosses >= 1 link
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservation, ::testing::Range(1, 9));

class RingSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(RingSizeSweep, BusBandwidthBoundedByProtocolRate) {
  const int n = GetParam();
  Simulator sim;
  Topology topo;
  FlowNetwork net(sim, topo);
  const auto spec = catalog::pcie4_x16_slot();
  const NodeId sw = topo.addNode("sw", NodeKind::PcieSwitch);
  std::vector<NodeId> gpus;
  for (int i = 0; i < n; ++i) {
    gpus.push_back(topo.addNode(std::string("g").append(std::to_string(i)),
                                NodeKind::Gpu));
    topo.addDuplexLink(gpus.back(), sw, spec.capacityPerDirection, spec.latency,
                       spec.kind);
  }
  collectives::Communicator comm(sim, net, topo, gpus);
  collectives::CollectiveResult res;
  comm.allReduce(units::MiB(128),
                 [&](const collectives::CollectiveResult& r) { res = r; },
                 collectives::Algorithm::Ring);
  sim.run();
  const double proto = 0.62 * spec.capacityPerDirection;
  const double busbw = res.busBandwidth(n);
  EXPECT_GT(busbw, proto * 0.85);
  EXPECT_LE(busbw, proto * 1.01);
  // Fabric bytes follow the ring formula exactly.
  const double expected =
      n * 2.0 * (n - 1) * (static_cast<double>(units::MiB(128)) / n);
  EXPECT_NEAR(static_cast<double>(res.bytes_on_fabric), expected,
              expected * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSizeSweep, ::testing::Values(2, 3, 4, 6, 8, 12, 16));

}  // namespace
}  // namespace composim::fabric
