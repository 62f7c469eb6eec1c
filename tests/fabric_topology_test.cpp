// Unit tests for the topology graph and its routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fabric/link_catalog.hpp"
#include "fabric/topology.hpp"
#include "sim/units.hpp"

namespace composim::fabric {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  Topology topo;
  NodeId a = topo.addNode("a", NodeKind::Gpu);
  NodeId b = topo.addNode("b", NodeKind::PcieSwitch);
  NodeId c = topo.addNode("c", NodeKind::Gpu);
};

TEST_F(TopologyTest, AddNodeAssignsSequentialIds) {
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 2);
  EXPECT_EQ(topo.nodeCount(), 3u);
  EXPECT_EQ(topo.node(a).name, "a");
  EXPECT_EQ(topo.node(b).kind, NodeKind::PcieSwitch);
}

TEST_F(TopologyTest, FindNodeByName) {
  EXPECT_EQ(topo.findNode("c"), c);
  EXPECT_EQ(topo.findNode("nope"), kInvalidNode);
}

TEST_F(TopologyTest, DuplexLinkCreatesBothDirections) {
  auto [fwd, rev] = topo.addDuplexLink(a, b, units::GBps(10), 1e-6,
                                       LinkKind::PCIe4);
  EXPECT_EQ(topo.link(fwd).src, a);
  EXPECT_EQ(topo.link(fwd).dst, b);
  EXPECT_EQ(topo.link(rev).src, b);
  EXPECT_EQ(topo.link(rev).dst, a);
  EXPECT_EQ(topo.linkCount(), 2u);
}

TEST_F(TopologyTest, RejectsSelfLoopAndBadCapacity) {
  EXPECT_THROW(topo.addLink(a, a, units::GBps(1), 0, LinkKind::Internal),
               std::invalid_argument);
  EXPECT_THROW(topo.addLink(a, b, 0.0, 0, LinkKind::Internal),
               std::invalid_argument);
  EXPECT_THROW(topo.addLink(a, 99, units::GBps(1), 0, LinkKind::Internal),
               std::out_of_range);
}

TEST_F(TopologyTest, RouteFollowsLinks) {
  topo.addDuplexLink(a, b, units::GBps(10), units::microseconds(1), LinkKind::PCIe4);
  topo.addDuplexLink(b, c, units::GBps(5), units::microseconds(2), LinkKind::PCIe4);
  auto r = topo.route(a, c);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->links.size(), 2u);
  EXPECT_DOUBLE_EQ(r->latency, units::microseconds(3));
  EXPECT_DOUBLE_EQ(r->bottleneck, units::GBps(5));
}

TEST_F(TopologyTest, RoutePrefersLowerLatency) {
  // Direct slow-latency path vs two-hop fast path.
  topo.addLink(a, c, units::GBps(1), units::microseconds(10), LinkKind::Ethernet);
  topo.addLink(a, b, units::GBps(10), units::microseconds(1), LinkKind::NVLink);
  topo.addLink(b, c, units::GBps(10), units::microseconds(1), LinkKind::NVLink);
  auto r = topo.route(a, c);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->links.size(), 2u);  // took the 2 us path, not the 10 us one
}

TEST_F(TopologyTest, RouteToSelfIsEmpty) {
  auto r = topo.route(a, a);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->links.empty());
}

TEST_F(TopologyTest, UnreachableReturnsNullopt) {
  EXPECT_FALSE(topo.route(a, c).has_value());
}

TEST_F(TopologyTest, DownLinkForcesReroute) {
  auto [direct, directRev] =
      topo.addDuplexLink(a, c, units::GBps(10), units::microseconds(1), LinkKind::NVLink);
  (void)directRev;
  topo.addDuplexLink(a, b, units::GBps(10), units::microseconds(2), LinkKind::PCIe4);
  topo.addDuplexLink(b, c, units::GBps(10), units::microseconds(2), LinkKind::PCIe4);
  EXPECT_EQ(topo.route(a, c)->links.size(), 1u);
  topo.setLinkUp(direct, false);
  EXPECT_EQ(topo.route(a, c)->links.size(), 2u);  // cache invalidated
  topo.setLinkUp(direct, true);
  EXPECT_EQ(topo.route(a, c)->links.size(), 1u);
}

TEST_F(TopologyTest, IsolateNodeSeversAllItsLinks) {
  topo.addDuplexLink(a, b, units::GBps(10), 0.0, LinkKind::PCIe4);
  topo.addDuplexLink(b, c, units::GBps(10), 0.0, LinkKind::PCIe4);
  topo.isolateNode(b);
  EXPECT_FALSE(topo.route(a, c).has_value());
  EXPECT_FALSE(topo.route(a, b).has_value());
}

TEST_F(TopologyTest, LinksFromAndInto) {
  topo.addDuplexLink(a, b, units::GBps(10), 0.0, LinkKind::PCIe4);
  topo.addLink(c, b, units::GBps(10), 0.0, LinkKind::PCIe4);
  EXPECT_EQ(topo.linksFrom(a).size(), 1u);
  EXPECT_EQ(topo.linksFrom(c).size(), 1u);
  EXPECT_EQ(topo.linksInto(b).size(), 2u);
}

TEST_F(TopologyTest, CountersDoNotInvalidateRouteCache) {
  topo.addDuplexLink(a, b, units::GBps(10), 0.0, LinkKind::PCIe4);
  auto g0 = topo.generation();
  topo.counters(0).bytes += 100;
  EXPECT_EQ(topo.generation(), g0);
}

TEST_F(TopologyTest, ReverseAdjacencyMatchesBruteForceScan) {
  topo.addDuplexLink(a, b, units::GBps(10), 0.0, LinkKind::PCIe4);
  topo.addLink(c, b, units::GBps(10), 0.0, LinkKind::PCIe4);
  topo.addLink(a, c, units::GBps(10), 0.0, LinkKind::NVLink);
  // Down links must still appear (same contract as the old O(E) scan).
  topo.setLinkUp(topo.linksInto(b).front(), false);
  for (NodeId n : {a, b, c}) {
    std::vector<LinkId> brute;
    for (std::size_t l = 0; l < topo.linkCount(); ++l) {
      if (topo.link(static_cast<LinkId>(l)).dst == n) {
        brute.push_back(static_cast<LinkId>(l));
      }
    }
    EXPECT_EQ(topo.linksInto(n), brute) << "node " << n;
  }
  // The table tracks later additions too.
  const NodeId d = topo.addNode("d", NodeKind::Storage);
  EXPECT_TRUE(topo.linksInto(d).empty());
  const LinkId l = topo.addLink(b, d, units::GBps(1), 0.0, LinkKind::PCIe4);
  ASSERT_EQ(topo.linksInto(d).size(), 1u);
  EXPECT_EQ(topo.linksInto(d).front(), l);
}

// route() mutates its per-instance cache/scratch from a const method, so
// a Topology is pinned to the first routing thread; cross-thread calls
// must fail loudly instead of racing (DESIGN.md §12 ownership model).
TEST_F(TopologyTest, RouteFromForeignThreadThrows) {
  topo.addDuplexLink(a, b, units::GBps(10), 0.0, LinkKind::PCIe4);
  ASSERT_TRUE(topo.route(a, b).has_value());  // pins this thread as owner

  bool threw = false;
  std::thread other([&] {
    try {
      (void)topo.route(a, b);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
  // The pinned owner keeps working.
  EXPECT_TRUE(topo.route(a, b).has_value());
}

TEST_F(TopologyTest, RebindRouteOwnerAllowsHandoff) {
  topo.addDuplexLink(a, b, units::GBps(10), 0.0, LinkKind::PCIe4);
  ASSERT_TRUE(topo.route(a, b).has_value());  // pin the main thread

  bool routed = false;
  std::thread other([&] {
    topo.rebindRouteOwner();  // deliberate handoff
    routed = topo.route(a, b).has_value();
  });
  other.join();
  EXPECT_TRUE(routed);
  // Ownership moved: the original thread is now the foreign one.
  EXPECT_THROW((void)topo.route(a, b), std::logic_error);
  topo.rebindRouteOwner();
  EXPECT_TRUE(topo.route(a, b).has_value());
}

TEST_F(TopologyTest, ScratchReuseSurvivesRepeatedRoutesAndMutations) {
  // Regression for the reused Dijkstra scratch: stale dist/via entries
  // from an earlier call must never leak into a later route.
  topo.addDuplexLink(a, b, units::GBps(10), units::microseconds(2), LinkKind::PCIe4);
  topo.addDuplexLink(b, c, units::GBps(10), units::microseconds(2), LinkKind::PCIe4);
  for (int i = 0; i < 100; ++i) {
    auto r = topo.route(a, c);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->links.size(), 2u);
  }
  // A new shorter path must win immediately after the mutation.
  topo.addLink(a, c, units::GBps(1), units::microseconds(1), LinkKind::NVLink);
  auto r = topo.route(a, c);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->links.size(), 1u);
  // And growing the graph keeps the (resized) scratch consistent.
  const NodeId d = topo.addNode("d", NodeKind::Gpu);
  topo.addLink(c, d, units::GBps(10), units::microseconds(1), LinkKind::NVLink);
  auto rd = topo.route(a, d);
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->links.size(), 2u);
}

TEST(LinkCatalog, CalibratedValues) {
  // The Table IV calibration (DESIGN.md §4) depends on these exact specs.
  EXPECT_DOUBLE_EQ(catalog::nvlink(2).capacityPerDirection, units::GBps(36.2));
  EXPECT_DOUBLE_EQ(catalog::pcie4_x16_slot().capacityPerDirection,
                   units::GBps(12.25));
  EXPECT_DOUBLE_EQ(catalog::hostAdapter().capacityPerDirection,
                   units::GBps(9.82));
  EXPECT_DOUBLE_EQ(catalog::dmaEndpointOverhead(), units::microseconds(1.3));
}

TEST(LinkKindNames, AllNamed) {
  EXPECT_STREQ(toString(LinkKind::NVLink), "NVLink");
  EXPECT_STREQ(toString(LinkKind::PCIe4), "PCI-e 4.0");
  EXPECT_STREQ(toString(NodeKind::Gpu), "GPU");
  EXPECT_STREQ(toString(NodeKind::Storage), "Storage");
}

// Randomized graphs checked pair by pair against a Bellman-Ford oracle
// over up links, which shares nothing with the router (no heap, scratch or
// cache). Latencies are exact binary fractions (k / 2^20 s), so equal-cost
// paths sum bitwise-identically and the checks demand exact equality.
double lat(int k) { return static_cast<double>(k) / 1048576.0; }

/// Deterministic xorshift so every run sees identical topologies.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 2654435761u + 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

std::vector<double> oracleDistances(const Topology& t, NodeId src) {
  std::vector<double> dist(t.nodeCount(), std::numeric_limits<double>::infinity());
  dist[static_cast<std::size_t>(src)] = 0.0;
  for (bool changed = true; changed;) {
    changed = false;
    for (LinkId l = 0; l < static_cast<LinkId>(t.linkCount()); ++l) {
      const Link& link = t.link(l);
      const double via = dist[static_cast<std::size_t>(link.src)] + link.latency;
      if (link.up && via < dist[static_cast<std::size_t>(link.dst)]) {
        dist[static_cast<std::size_t>(link.dst)] = via;
        changed = true;
      }
    }
  }
  return dist;
}

/// Every (src, dst) pair: the oracle's reachability and latency, over a
/// contiguous path of up links whose latency and bottleneck match it.
void expectMatchesOracle(const Topology& topo) {
  const int n = static_cast<int>(topo.nodeCount());
  for (NodeId s = 0; s < n; ++s) {
    const std::vector<double> dist = oracleDistances(topo, s);
    for (NodeId d = 0; d < n; ++d) {
      const auto route = topo.route(s, d);
      const double want = dist[static_cast<std::size_t>(d)];
      ASSERT_EQ(route.has_value(), std::isfinite(want))
          << "reachability mismatch " << s << "->" << d;
      if (!route) continue;
      EXPECT_EQ(route->latency, want) << "latency mismatch " << s << "->" << d;
      NodeId cur = s;
      double sum = 0.0;
      double bottleneck = std::numeric_limits<double>::infinity();
      for (LinkId lid : route->links) {
        const Link& l = topo.link(lid);
        ASSERT_EQ(l.src, cur) << "discontiguous path " << s << "->" << d;
        ASSERT_TRUE(l.up) << "path uses a down link " << s << "->" << d;
        sum += l.latency;
        bottleneck = std::min(bottleneck, l.capacity);
        cur = l.dst;
      }
      ASSERT_EQ(cur, d) << "path does not end at dst " << s << "->" << d;
      EXPECT_EQ(route->latency, sum);
      if (!route->links.empty()) {
        EXPECT_EQ(route->bottleneck, bottleneck);
      }
    }
  }
}

class RandomizedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedEquivalence, MatchesFlatOracleIncludingDownLinks) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Topology t;
  const int nodes = rng.range(6, 24);
  for (int i = 0; i < nodes; ++i) {
    t.addNode(std::string("n").append(std::to_string(i)), NodeKind::Gpu);
  }
  // A connecting chain plus random chords, so equal-cost alternatives and
  // detours exist.
  std::vector<LinkId> links;
  const auto connect = [&](NodeId a, NodeId b) {
    const auto [f, r] =
        t.addDuplexLink(a, b, 1e8 * rng.range(1, 8), lat(rng.range(1, 64)),
                        LinkKind::PCIe4);
    links.push_back(f);
    links.push_back(r);
  };
  for (NodeId i = 1; i < nodes; ++i) connect(i - 1, i);
  const int chords = rng.range(0, nodes);
  for (int e = 0; e < chords; ++e) {
    const NodeId a = rng.range(0, nodes - 1);
    const NodeId b = rng.range(0, nodes - 1);
    if (a != b) connect(a, b);
  }

  expectMatchesOracle(t);
  // Knock out ~20% of links (possibly disconnecting the graph), re-check,
  // then restore them and check the recomputed routes once more.
  for (LinkId l : links) {
    if (rng.range(0, 4) == 0) t.setLinkUp(l, false);
  }
  expectMatchesOracle(t);
  for (LinkId l : links) t.setLinkUp(l, true);
  expectMatchesOracle(t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalence, ::testing::Range(1, 13));

}  // namespace
}  // namespace composim::fabric
