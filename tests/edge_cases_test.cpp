// Edge cases across modules: degenerate inputs, boundary conditions and
// API misuse that must stay well-defined.
#include <gtest/gtest.h>

#include "collectives/communicator.hpp"
#include "core/recommender.hpp"
#include "dl/inference.hpp"
#include "dl/pipeline.hpp"
#include "dl/workload_registry.hpp"
#include "fabric/link_catalog.hpp"
#include "falcon/json.hpp"

namespace composim {
namespace {

TEST(SimulatorEdge, CancelledEventAtRunUntilBoundary) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(2.0, [&] { ran = true; });
  sim.schedule(2.0, [] {});
  sim.cancel(id);
  sim.runUntil(2.0);
  EXPECT_FALSE(ran);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.eventsExecuted(), 1u);
}

TEST(SimulatorEdge, RunUntilExactEventTimeExecutesIt) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.runUntil(1.0);
  EXPECT_EQ(count, 1);
}

TEST(FlowEdge, ZeroMaxRateStallsUntilCancelled) {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net(sim, topo);
  const auto a = topo.addNode("a", fabric::NodeKind::Gpu);
  const auto b = topo.addNode("b", fabric::NodeKind::Gpu);
  const auto [ab, ba] =
      topo.addDuplexLink(a, b, units::GBps(10), 0.0, fabric::LinkKind::PCIe4);
  (void)ba;
  fabric::FlowOptions opt;
  opt.maxRate = 0.0;
  fabric::FlowResult res;
  net.startFlow(a, b, units::MiB(1),
                [&](const fabric::FlowResult& r) { res = r; }, opt);
  sim.run();  // drains: the stalled flow schedules nothing
  EXPECT_EQ(net.activeFlows(), 1u);
  net.failLink(ab);  // the only way to end a flow that never moves
  EXPECT_EQ(net.activeFlows(), 0u);
  EXPECT_EQ(res.status, fabric::FlowStatus::Failed);
  EXPECT_EQ(res.bytes, 0);
}

TEST(FlowEdge, ManyTinyFlowsAllComplete) {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net(sim, topo);
  const auto a = topo.addNode("a", fabric::NodeKind::Gpu);
  const auto b = topo.addNode("b", fabric::NodeKind::Gpu);
  topo.addDuplexLink(a, b, units::GBps(10), 1e-6, fabric::LinkKind::PCIe4);
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    net.startFlow(a, b, 1 + i, [&](const fabric::FlowResult&) { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 200);
}

TEST(JsonEdge, Int64ExtremesRoundTrip) {
  const std::int64_t big = 9007199254740993LL;  // beyond double precision
  falcon::Json j(big);
  EXPECT_EQ(falcon::Json::parse(j.dump()).asInt(), big);
  EXPECT_EQ(falcon::Json::parse("-9223372036854775807").asInt(),
            -9223372036854775807LL);
}

TEST(JsonEdge, DeepNestingParses) {
  std::string text;
  for (int i = 0; i < 60; ++i) text += "[";
  text += "1";
  for (int i = 0; i < 60; ++i) text += "]";
  falcon::Json v = falcon::Json::parse(text);
  for (int i = 0; i < 60; ++i) {
    falcon::Json inner = v.asArray()[0];  // copy before replacing the parent
    v = std::move(inner);
  }
  EXPECT_EQ(v.asInt(), 1);
}

TEST(CollectivesEdge, TreeHandlesNonPowerOfTwoRanks) {
  for (const int n : {3, 5, 7}) {
    Simulator sim;
    fabric::Topology topo;
    fabric::FlowNetwork net(sim, topo);
    const auto sw = topo.addNode("sw", fabric::NodeKind::PcieSwitch);
    const auto spec = fabric::catalog::pcie4_x16_slot();
    std::vector<fabric::NodeId> gpus;
    for (int i = 0; i < n; ++i) {
      gpus.push_back(topo.addNode(std::string("g").append(std::to_string(i)),
                                  fabric::NodeKind::Gpu));
      topo.addDuplexLink(gpus.back(), sw, spec.capacityPerDirection,
                         spec.latency, spec.kind);
    }
    collectives::Communicator comm(sim, net, topo, gpus);
    bool done = false;
    comm.allReduce(units::MiB(16),
                   [&](const collectives::CollectiveResult&) { done = true; },
                   collectives::Algorithm::Tree);
    sim.run();
    EXPECT_TRUE(done) << n << " ranks";
  }
}

TEST(CollectivesEdge, BroadcastFromNonZeroRoot) {
  Simulator sim;
  fabric::Topology topo;
  fabric::FlowNetwork net(sim, topo);
  const auto sw = topo.addNode("sw", fabric::NodeKind::PcieSwitch);
  const auto spec = fabric::catalog::pcie4_x16_slot();
  std::vector<fabric::NodeId> gpus;
  for (int i = 0; i < 4; ++i) {
    gpus.push_back(topo.addNode("g" + std::to_string(i), fabric::NodeKind::Gpu));
    topo.addDuplexLink(gpus.back(), sw, spec.capacityPerDirection, spec.latency,
                       spec.kind);
  }
  collectives::Communicator comm(sim, net, topo, gpus);
  for (int root = 0; root < 4; ++root) {
    bool done = false;
    comm.broadcast(units::MiB(8), root,
                   [&](const collectives::CollectiveResult&) { done = true; });
    sim.run();
    EXPECT_TRUE(done) << "root " << root;
  }
}

TEST(PipelineEdge, RequestBeforeStartIsServedAfterStart) {
  core::ComposableSystem sys(core::SystemConfig::LocalNvme);
  dl::DatasetSpec tiny;
  tiny.name = "tiny";
  tiny.train_samples = 100;
  tiny.disk_bytes_per_sample = units::KB(10);
  tiny.cpu_preprocess_per_sample = units::microseconds(10);
  tiny.device_bytes_per_sample = units::KB(10);
  dl::DataPipeline p(sys.sim(), sys.cpu(), sys.trainingStorage(),
                     sys.hostMemory(), tiny, 10);
  bool got = false;
  p.requestBatch([&] { got = true; });
  sys.sim().run();
  EXPECT_FALSE(got);  // nothing produced yet
  p.start();
  sys.sim().run();
  EXPECT_TRUE(got);
}

TEST(RecommenderEdge, ZeroOverheadWhenFalconWins) {
  core::Recommender rec;
  rec.addRun(core::RunRecord{"m", core::SystemConfig::FalconGpus, 90.0, 11.0,
                             1e6, 1e9});
  rec.addRun(core::RunRecord{"m", core::SystemConfig::LocalGpus, 100.0, 10.0,
                             1e6, 1e9});
  const auto best = rec.recommendFor("m");
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->config, core::SystemConfig::FalconGpus);
  EXPECT_DOUBLE_EQ(best->composability_overhead_pct, 0.0);
}

TEST(InferenceEdge, ZeroRequestsCompletesImmediately) {
  core::ComposableSystem sys(core::SystemConfig::LocalGpus);
  auto gpus = sys.trainingGpus();
  dl::InferenceEngine engine(sys.sim(), sys.network(), *gpus.front(),
                             sys.hostMemory(), dl::workload("MobileNetV2"));
  dl::InferenceStats stats;
  stats.requests = -1;
  engine.serve(100.0, 0, [&](const dl::InferenceStats& s) { stats = s; });
  sys.sim().run();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_DOUBLE_EQ(stats.latency_p99_ms, 0.0);
}

TEST(ZooEdge, EveryModelHasPositiveCharacteristics) {
  auto models = dl::WorkloadRegistry::instance().paperZoo();
  models.push_back(dl::workload("GPT-2-medium"));
  models.push_back(dl::workload("ViT-B/16"));
  for (const auto& m : models) {
    EXPECT_GT(m.totalParams(), 0) << m.name;
    EXPECT_GT(m.forwardFlopsPerSample(), 0.0) << m.name;
    EXPECT_GT(m.activationBytesPerSample(), 0) << m.name;
    EXPECT_GT(m.input_bytes_per_sample, 0) << m.name;
    EXPECT_GT(m.paper_batch_per_gpu, 0) << m.name;
    EXPECT_GT(m.fp16_efficiency, 0.0) << m.name;
    EXPECT_LE(m.fp16_efficiency, 1.0) << m.name;
  }
}

}  // namespace
}  // namespace composim
