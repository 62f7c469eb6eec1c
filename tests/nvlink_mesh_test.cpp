// Tests for the hybrid cube-mesh NVLink builder (paper Fig 7).
#include <gtest/gtest.h>

#include <array>

#include "fabric/link_catalog.hpp"
#include "fabric/nvlink_mesh.hpp"
#include "sim/units.hpp"

namespace composim::fabric {
namespace {

TEST(HybridCubeMesh, EveryV100SpendsExactlySixBricks) {
  std::array<int, 8> bricks{};
  for (const auto& e : hybridCubeMesh(8)) {
    bricks[static_cast<std::size_t>(e.a)] += e.bricks;
    bricks[static_cast<std::size_t>(e.b)] += e.bricks;
  }
  for (int g = 0; g < 8; ++g) {
    EXPECT_EQ(bricks[static_cast<std::size_t>(g)], 6) << "GPU " << g;
  }
}

TEST(HybridCubeMesh, TotalBricksMatchTwentyFourLinkPairs) {
  int total = 0;
  for (const auto& e : hybridCubeMesh(8)) total += e.bricks;
  EXPECT_EQ(total, 24);  // 8 GPUs x 6 bricks / 2 endpoints
}

TEST(HybridCubeMesh, QuadsAreFullyConnected) {
  const auto edges = hybridCubeMesh(8);
  auto connected = [&](int a, int b) {
    for (const auto& e : edges) {
      if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) return true;
    }
    return false;
  };
  for (int q = 0; q < 8; q += 4) {
    for (int i = q; i < q + 4; ++i) {
      for (int j = i + 1; j < q + 4; ++j) {
        EXPECT_TRUE(connected(i, j)) << i << "-" << j;
      }
    }
  }
}

TEST(HybridCubeMesh, InterQuadRingEdgesAreDoubleWidth) {
  // The 8-GPU NCCL ring 0-1-2-3-7-6-5-4-0 must run on 2-brick edges.
  const int ring[] = {0, 1, 2, 3, 7, 6, 5, 4, 0};
  const auto edges = hybridCubeMesh(8);
  for (int i = 0; i < 8; ++i) {
    const int a = ring[i];
    const int b = ring[i + 1];
    bool wide = false;
    for (const auto& e : edges) {
      if (((e.a == a && e.b == b) || (e.a == b && e.b == a)) && e.bricks == 2) {
        wide = true;
      }
    }
    EXPECT_TRUE(wide) << "ring hop " << a << "->" << b;
  }
}

TEST(HybridCubeMesh, FourGpuVariantIsFullyConnected) {
  const auto edges = hybridCubeMesh(4);
  EXPECT_EQ(edges.size(), 6u);  // C(4,2)
  int total = 0;
  for (const auto& e : edges) total += e.bricks;
  EXPECT_EQ(total, 10);
}

TEST(HybridCubeMesh, RejectsUnsupportedCounts) {
  EXPECT_THROW(hybridCubeMesh(3), std::invalid_argument);
  EXPECT_THROW(hybridCubeMesh(16), std::invalid_argument);
}

TEST(HybridCubeMesh, BuildWiresDuplexNvlinks) {
  Topology topo;
  std::vector<NodeId> gpus;
  for (int i = 0; i < 8; ++i) {
    gpus.push_back(topo.addNode(std::string("g").append(std::to_string(i)),
                                NodeKind::Gpu));
  }
  const auto links = buildHybridCubeMesh(topo, gpus);
  EXPECT_EQ(links.size(), hybridCubeMesh(8).size());
  EXPECT_EQ(topo.linkCount(), 2 * links.size());
  for (LinkId l : links) {
    EXPECT_EQ(topo.link(l).kind, LinkKind::NVLink);
    EXPECT_GT(topo.link(l).capacity, 0.0);
  }
  // Direct neighbours route over exactly one NVLink hop.
  auto r = topo.route(gpus[0], gpus[1]);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->links.size(), 1u);
  EXPECT_DOUBLE_EQ(r->bottleneck, catalog::nvlink(2).capacityPerDirection);
  // Mesh diameter is 2: every pair is reachable within two NVLink hops.
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i == j) continue;
      auto rr = topo.route(gpus[static_cast<std::size_t>(i)],
                           gpus[static_cast<std::size_t>(j)]);
      ASSERT_TRUE(rr.has_value());
      EXPECT_LE(rr->links.size(), 2u);
    }
  }
}

}  // namespace
}  // namespace composim::fabric
