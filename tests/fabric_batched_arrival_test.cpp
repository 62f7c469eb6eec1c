// Batched-arrival equivalence: startFlows()/cancelFlows() must produce
// bit-identical rates, completion times, statuses, and link byte counters
// to one-at-a-time startFlow()/cancelFlow() calls at the same timestamp —
// the intermediate solves of a serial arrival sequence are transient and
// fully overwritten by the last one. Replays run the same scenario with
// job sizes 1 (serial), 4, and whole-wave, in both incremental and full
// solver modes. What batching is allowed to change: the recomputation
// counter (one solve epoch per wave instead of one per flow).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fabric/flow_network.hpp"
#include "sim/random.hpp"
#include "sim/units.hpp"

namespace composim::fabric {
namespace {

struct Arrival {
  std::size_t src = 0, dst = 0;
  Bytes bytes = 0;
  FlowOptions options;
};

struct Wave {
  SimTime time = 0.0;
  std::vector<Arrival> arrivals;
  std::vector<std::size_t> cancels;  // global arrival indices to cancel
};

struct Scenario {
  int pods = 2;
  int leaves_per_pod = 4;
  std::vector<double> capacities;
  std::vector<Wave> waves;
  std::size_t arrival_count = 0;
};

Scenario makeScenario(std::uint64_t seed) {
  Scenario sc;
  Rng rng(seed * 104729 + 7);
  const int total_leaves = sc.pods * sc.leaves_per_pod;
  for (int i = 0; i < total_leaves; ++i) {
    sc.capacities.push_back(units::GBps(rng.uniform(2.0, 12.0)));
  }
  const int wave_count = 6;
  for (int w = 0; w < wave_count; ++w) {
    Wave wave;
    wave.time = 0.02 * (w + 1) + rng.uniform(0.0, 0.015);
    const int arrivals = rng.uniformInt(3, 8);
    for (int i = 0; i < arrivals; ++i) {
      Arrival a;
      const int pod = rng.uniformInt(0, sc.pods - 1);
      const int s = rng.uniformInt(0, sc.leaves_per_pod - 1);
      int d = rng.uniformInt(0, sc.leaves_per_pod - 1);
      if (d == s) d = (d + 1) % sc.leaves_per_pod;
      a.src = static_cast<std::size_t>(pod * sc.leaves_per_pod + s);
      a.dst = static_cast<std::size_t>(pod * sc.leaves_per_pod + d);
      a.bytes = units::MiB(rng.uniformInt(1, 48));
      if (rng.uniform() < 0.25) a.options.maxRate = units::GBps(rng.uniform(0.5, 3.0));
      if (rng.uniform() < 0.25) {
        a.options.extraLatency = units::microseconds(rng.uniform(1.0, 20.0));
      }
      // Sprinkle latency-only (same-node) and zero-byte transfers into the
      // batch so mixed admission order is exercised.
      if (rng.uniform() < 0.15) a.dst = a.src;
      if (rng.uniform() < 0.1) a.bytes = 0;
      wave.arrivals.push_back(a);
      ++sc.arrival_count;
    }
    // Later waves cancel a few earlier arrivals as one batched teardown.
    if (w >= 2) {
      const int cancels = rng.uniformInt(0, 3);
      for (int c = 0; c < cancels; ++c) {
        wave.cancels.push_back(static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(sc.arrival_count) - 1)));
      }
    }
    sc.waves.push_back(std::move(wave));
  }
  return sc;
}

struct Outcome {
  std::vector<double> rate_samples;
  std::vector<int> statuses;
  std::vector<Bytes> bytes;
  std::vector<SimTime> end_times;
  std::vector<Bytes> link_bytes;
  std::uint64_t completed = 0, failed = 0;
  std::uint64_t recomputations = 0;
};

/// job == 0 means "whole wave in one startFlows/cancelFlows call";
/// job == 1 is the serial reference via startFlow/cancelFlow.
Outcome replay(const Scenario& sc, std::size_t job, bool incremental) {
  Simulator sim;
  Topology topo;
  FlowNetwork net(sim, topo);
  net.setIncrementalSolve(incremental);

  std::vector<NodeId> leaves;
  std::vector<LinkId> links;
  for (int p = 0; p < sc.pods; ++p) {
    const NodeId hub = topo.addNode("hub" + std::to_string(p), NodeKind::PcieSwitch);
    for (int l = 0; l < sc.leaves_per_pod; ++l) {
      const NodeId leaf = topo.addNode(
          "leaf" + std::to_string(p) + "_" + std::to_string(l), NodeKind::Gpu);
      const auto idx = leaves.size();
      auto [fwd, rev] = topo.addDuplexLink(leaf, hub, sc.capacities[idx], 0.0,
                                           LinkKind::PCIe4);
      leaves.push_back(leaf);
      links.push_back(fwd);
      links.push_back(rev);
    }
  }

  Outcome out;
  out.statuses.assign(sc.arrival_count, -1);
  out.bytes.assign(sc.arrival_count, 0);
  out.end_times.assign(sc.arrival_count, 0.0);
  std::vector<FlowId> ids(sc.arrival_count, kInvalidFlow);

  std::size_t base = 0;
  for (const Wave& wave : sc.waves) {
    const std::size_t wave_base = base;
    base += wave.arrivals.size();
    sim.schedule(wave.time, [&, wave_base, &wave = wave] {
      const auto record = [&out](std::size_t idx) {
        return [&out, idx](const FlowResult& r) {
          out.statuses[idx] = static_cast<int>(r.status);
          out.bytes[idx] = r.bytes;
          out.end_times[idx] = r.end;
        };
      };
      const std::size_t group = job == 0 ? wave.arrivals.size() : job;
      for (std::size_t g = 0; g < wave.arrivals.size(); g += group) {
        const std::size_t end = std::min(wave.arrivals.size(), g + group);
        if (group == 1) {
          const Arrival& a = wave.arrivals[g];
          ids[wave_base + g] = net.startFlow(leaves[a.src], leaves[a.dst],
                                             a.bytes, record(wave_base + g),
                                             a.options);
        } else {
          std::vector<FlowRequest> batch;
          batch.reserve(end - g);
          for (std::size_t i = g; i < end; ++i) {
            const Arrival& a = wave.arrivals[i];
            FlowRequest rq;
            rq.src = leaves[a.src];
            rq.dst = leaves[a.dst];
            rq.bytes = a.bytes;
            rq.done = record(wave_base + i);
            rq.options = a.options;
            batch.push_back(std::move(rq));
          }
          const auto got = net.startFlows(std::move(batch));
          for (std::size_t i = g; i < end; ++i) ids[i - g + wave_base + g] = got[i - g];
        }
      }
      // Batched teardown of earlier arrivals (ids may already be done —
      // deterministic no-ops either way).
      if (!wave.cancels.empty()) {
        if (group == 1) {
          for (std::size_t idx : wave.cancels) net.cancelFlow(ids[idx]);
        } else {
          std::vector<FlowId> victims;
          victims.reserve(wave.cancels.size());
          for (std::size_t idx : wave.cancels) victims.push_back(ids[idx]);
          net.cancelFlows(victims);
        }
      }
      for (FlowId id : ids) out.rate_samples.push_back(net.flowRate(id));
    });
  }
  sim.run();
  for (LinkId l : links) out.link_bytes.push_back(net.linkBytes(l));
  out.completed = net.flowsCompleted();
  out.failed = net.flowsFailed();
  out.recomputations = net.rateRecomputations();
  return out;
}

void expectSameResults(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.rate_samples.size(), b.rate_samples.size());
  for (std::size_t i = 0; i < a.rate_samples.size(); ++i) {
    // EXPECT_EQ on doubles: exact equality, not a tolerance.
    EXPECT_EQ(a.rate_samples[i], b.rate_samples[i]) << "sample " << i;
  }
  ASSERT_EQ(a.statuses.size(), b.statuses.size());
  for (std::size_t i = 0; i < a.statuses.size(); ++i) {
    EXPECT_EQ(a.statuses[i], b.statuses[i]) << "flow " << i;
    EXPECT_EQ(a.bytes[i], b.bytes[i]) << "flow " << i;
    EXPECT_EQ(a.end_times[i], b.end_times[i]) << "flow " << i;
  }
  EXPECT_EQ(a.link_bytes, b.link_bytes);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
}

class BatchedArrival : public ::testing::TestWithParam<int> {};

TEST_P(BatchedArrival, JobsOneVsFourVsWaveBitIdentical) {
  const auto sc = makeScenario(static_cast<std::uint64_t>(GetParam()));
  const Outcome serial = replay(sc, 1, /*incremental=*/true);
  const Outcome four = replay(sc, 4, /*incremental=*/true);
  const Outcome wave = replay(sc, 0, /*incremental=*/true);
  expectSameResults(serial, four);
  expectSameResults(serial, wave);
  // Coalescing strictly reduces solve epochs (any wave has >1 arrival).
  EXPECT_LT(wave.recomputations, serial.recomputations);
}

TEST_P(BatchedArrival, BatchedFullModeMatchesBatchedIncremental) {
  const auto sc = makeScenario(static_cast<std::uint64_t>(GetParam()));
  const Outcome inc = replay(sc, 0, /*incremental=*/true);
  const Outcome full = replay(sc, 0, /*incremental=*/false);
  expectSameResults(inc, full);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedArrival, ::testing::Range(1, 9));

TEST(BatchedArrivalApi, OneRecomputationPerBatchAndAlignedIds) {
  Simulator sim;
  Topology topo;
  FlowNetwork net(sim, topo);
  const NodeId hub = topo.addNode("hub", NodeKind::PcieSwitch);
  std::vector<NodeId> gpus;
  for (int i = 0; i < 8; ++i) {
    gpus.push_back(topo.addNode(std::string("g").append(std::to_string(i)),
                                NodeKind::Gpu));
    topo.addDuplexLink(gpus.back(), hub, units::GBps(10), 0.0, LinkKind::PCIe4);
  }
  const NodeId island = topo.addNode("island", NodeKind::Gpu);  // unroutable

  std::vector<FlowRequest> batch;
  for (int i = 0; i < 8; ++i) {
    FlowRequest rq;
    rq.src = gpus[static_cast<std::size_t>(i)];
    rq.dst = gpus[static_cast<std::size_t>((i + 1) % 8)];
    rq.bytes = units::MiB(4);
    batch.push_back(std::move(rq));
  }
  // Mixed entries: unroutable, same-node (latency-only), zero-byte.
  FlowRequest bad;
  bad.src = gpus[0];
  bad.dst = island;
  bad.bytes = units::MiB(1);
  batch.push_back(std::move(bad));
  FlowRequest same;
  same.src = gpus[1];
  same.dst = gpus[1];
  same.bytes = units::MiB(1);
  batch.push_back(std::move(same));
  FlowRequest zero;
  zero.src = gpus[2];
  zero.dst = gpus[3];
  zero.bytes = 0;
  batch.push_back(std::move(zero));

  const auto ids = net.startFlows(std::move(batch));
  ASSERT_EQ(ids.size(), 11u);
  for (int i = 0; i < 8; ++i) EXPECT_NE(ids[static_cast<std::size_t>(i)], kInvalidFlow);
  EXPECT_EQ(ids[8], kInvalidFlow);  // unroutable fails soft, keeps its slot
  EXPECT_NE(ids[9], kInvalidFlow);
  EXPECT_NE(ids[10], kInvalidFlow);
  // The whole 8-flow ring shares the hub: one union, ONE solve epoch.
  EXPECT_EQ(net.rateRecomputations(), 1u);
  EXPECT_EQ(net.activeFlows(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_GT(net.flowRate(ids[static_cast<std::size_t>(i)]), 0.0);
  }

  // Batched teardown: one recomputation for the four cancels.
  const std::size_t before = net.rateRecomputations();
  EXPECT_EQ(net.cancelFlows({ids[0], ids[2], ids[4], kInvalidFlow}), 3u);
  EXPECT_EQ(net.rateRecomputations(), before + 1);
  EXPECT_EQ(net.activeFlows(), 5u);
  sim.run();
  EXPECT_EQ(net.flowsCompleted(), 7u);  // 5 byte flows + latency-only + zero-byte
  EXPECT_EQ(net.flowsFailed(), 4u);     // unroutable + 3 cancelled
}

TEST(BatchedArrivalApi, EmptyAndLatencyOnlyBatchesDoNotSolve) {
  Simulator sim;
  Topology topo;
  FlowNetwork net(sim, topo);
  const NodeId a = topo.addNode("a", NodeKind::Gpu);
  EXPECT_TRUE(net.startFlows({}).empty());
  std::vector<FlowRequest> batch(2);
  batch[0].src = a;
  batch[0].dst = a;
  batch[0].bytes = units::KiB(1);
  batch[1].src = a;
  batch[1].dst = a;
  batch[1].bytes = 0;
  const auto ids = net.startFlows(std::move(batch));
  EXPECT_EQ(ids.size(), 2u);
  // Latency-only admissions never touch the solver.
  EXPECT_EQ(net.rateRecomputations(), 0u);
  sim.run();
  EXPECT_EQ(net.flowsCompleted(), 2u);
}

}  // namespace
}  // namespace composim::fabric
