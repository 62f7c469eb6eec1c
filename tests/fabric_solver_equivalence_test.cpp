// Property suite for the incremental max-min solver: replaying the same
// randomized scenario with incremental component solving on and off must
// produce bit-identical rates, completion times, statuses, and link byte
// counters. Full mode is the straightforward re-solve-everything reference,
// so any divergence means the incremental bookkeeping dropped or corrupted
// a component.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fabric/flow_network.hpp"
#include "sim/random.hpp"
#include "sim/units.hpp"

namespace composim::fabric {
namespace {

struct Op {
  enum class Kind { Arrive, FailLink, Sample } kind;
  SimTime time = 0.0;
  // Arrive
  std::size_t src = 0, dst = 0;
  Bytes bytes = 0;
  FlowOptions options;
  // FailLink
  LinkId link = kInvalidLink;
};

struct Scenario {
  int pods = 2;
  int leaves_per_pod = 3;
  std::vector<double> capacities;  // one per duplex leaf<->hub pair
  std::vector<Op> ops;             // sorted by time
};

// The scenario is generated once per seed, independent of solver mode, so
// both replays see the exact same event sequence.
Scenario makeScenario(std::uint64_t seed) {
  Scenario sc;
  Rng rng(seed * 7919 + 13);
  const int total_leaves = sc.pods * sc.leaves_per_pod;
  for (int i = 0; i < total_leaves; ++i) {
    sc.capacities.push_back(units::GBps(rng.uniform(2.0, 12.0)));
  }
  const int arrivals = 24;
  for (int i = 0; i < arrivals; ++i) {
    Op op;
    op.kind = Op::Kind::Arrive;
    op.time = rng.uniform(0.0, 0.5);
    // Keep src/dst inside one pod so each pod stays its own component
    // family and a route always exists.
    const int pod = rng.uniformInt(0, sc.pods - 1);
    const int s = rng.uniformInt(0, sc.leaves_per_pod - 1);
    int d = rng.uniformInt(0, sc.leaves_per_pod - 1);
    if (d == s) d = (d + 1) % sc.leaves_per_pod;
    op.src = static_cast<std::size_t>(pod * sc.leaves_per_pod + s);
    op.dst = static_cast<std::size_t>(pod * sc.leaves_per_pod + d);
    op.bytes = units::MiB(rng.uniformInt(1, 64));
    if (rng.uniform() < 0.3) op.options.maxRate = units::GBps(rng.uniform(0.5, 3.0));
    if (rng.uniform() < 0.3) {
      op.options.extraLatency = units::microseconds(rng.uniform(1.0, 20.0));
    }
    sc.ops.push_back(op);
  }
  // Unused draws, kept so each seed's link failure and sample times stay
  // the same.
  for (int i = 0; i < 6; ++i) {
    (void)rng.uniform(0.0, 0.6);
    (void)rng.uniformInt(0, arrivals - 1);
  }
  {
    Op op;
    op.kind = Op::Kind::FailLink;
    op.time = rng.uniform(0.1, 0.4);
    // Duplex links are added in pairs; pick the forward direction of a
    // random leaf uplink.
    op.link = static_cast<LinkId>(2 * rng.uniformInt(0, total_leaves - 1));
    sc.ops.push_back(op);
  }
  for (int i = 0; i < 10; ++i) {
    Op op;
    op.kind = Op::Kind::Sample;
    op.time = rng.uniform(0.0, 0.6);
    sc.ops.push_back(op);
  }
  std::stable_sort(sc.ops.begin(), sc.ops.end(),
                   [](const Op& a, const Op& b) { return a.time < b.time; });
  return sc;
}

struct Outcome {
  std::vector<double> rate_samples;
  std::vector<int> statuses;       // by arrival index; -1 = callback never fired
  std::vector<Bytes> bytes;        // by arrival index
  std::vector<SimTime> end_times;  // by arrival index
  std::vector<Bytes> link_bytes;
  std::uint64_t completed = 0, failed = 0;
  std::uint64_t recomputations = 0, component_solves = 0;
};

Outcome replay(const Scenario& sc, bool incremental) {
  Simulator sim;
  Topology topo;
  FlowNetwork net(sim, topo);
  net.setIncrementalSolve(incremental);

  std::vector<NodeId> leaves;
  std::vector<LinkId> links;
  for (int p = 0; p < sc.pods; ++p) {
    const NodeId hub = topo.addNode("hub" + std::to_string(p), NodeKind::PcieSwitch);
    for (int l = 0; l < sc.leaves_per_pod; ++l) {
      const NodeId leaf = topo.addNode("leaf" + std::to_string(p) + "_" + std::to_string(l),
                                       NodeKind::Gpu);
      const auto idx = leaves.size();
      auto [fwd, rev] = topo.addDuplexLink(leaf, hub, sc.capacities[idx], 0.0,
                                           LinkKind::PCIe4);
      leaves.push_back(leaf);
      links.push_back(fwd);
      links.push_back(rev);
    }
  }

  Outcome out;
  std::size_t arrival_count = 0;
  for (const Op& op : sc.ops) arrival_count += op.kind == Op::Kind::Arrive;
  out.statuses.assign(arrival_count, -1);
  out.bytes.assign(arrival_count, 0);
  out.end_times.assign(arrival_count, 0.0);

  std::vector<FlowId> ids(arrival_count, kInvalidFlow);
  std::size_t next_arrival = 0;
  for (const Op& op : sc.ops) {
    switch (op.kind) {
      case Op::Kind::Arrive: {
        const std::size_t idx = next_arrival++;
        sim.schedule(op.time, [&, idx, op] {
          ids[idx] = net.startFlow(leaves[op.src], leaves[op.dst], op.bytes,
                                   [&out, idx](const FlowResult& r) {
                                     out.statuses[idx] = static_cast<int>(r.status);
                                     out.bytes[idx] = r.bytes;
                                     out.end_times[idx] = r.end;
                                   },
                                   op.options);
        });
        break;
      }
      case Op::Kind::FailLink:
        sim.schedule(op.time, [&, op] { net.failLink(op.link); });
        break;
      case Op::Kind::Sample:
        sim.schedule(op.time, [&] {
          for (FlowId id : ids) out.rate_samples.push_back(net.flowRate(id));
        });
        break;
    }
  }
  sim.run();
  for (LinkId l : links) out.link_bytes.push_back(net.linkBytes(l));
  out.completed = net.flowsCompleted();
  out.failed = net.flowsFailed();
  out.recomputations = net.rateRecomputations();
  out.component_solves = net.componentSolves();
  return out;
}

class SolverEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SolverEquivalence, IncrementalMatchesFullRecomputeBitwise) {
  const auto sc = makeScenario(static_cast<std::uint64_t>(GetParam()));
  const Outcome inc = replay(sc, /*incremental=*/true);
  const Outcome full = replay(sc, /*incremental=*/false);

  ASSERT_EQ(inc.rate_samples.size(), full.rate_samples.size());
  for (std::size_t i = 0; i < inc.rate_samples.size(); ++i) {
    // EXPECT_EQ on doubles: exact equality, not a tolerance.
    EXPECT_EQ(inc.rate_samples[i], full.rate_samples[i]) << "sample " << i;
  }
  ASSERT_EQ(inc.statuses.size(), full.statuses.size());
  for (std::size_t i = 0; i < inc.statuses.size(); ++i) {
    EXPECT_EQ(inc.statuses[i], full.statuses[i]) << "flow " << i;
    EXPECT_EQ(inc.bytes[i], full.bytes[i]) << "flow " << i;
    EXPECT_EQ(inc.end_times[i], full.end_times[i]) << "flow " << i;
  }
  EXPECT_EQ(inc.link_bytes, full.link_bytes);
  EXPECT_EQ(inc.completed, full.completed);
  EXPECT_EQ(inc.failed, full.failed);
  // Both modes resolve at the same call sites; incremental mode just
  // solves fewer components per resolve.
  EXPECT_EQ(inc.recomputations, full.recomputations);
  EXPECT_LE(inc.component_solves, full.component_solves);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverEquivalence, ::testing::Range(1, 11));

}  // namespace
}  // namespace composim::fabric
