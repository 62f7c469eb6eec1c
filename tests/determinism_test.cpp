// Determinism: identical inputs must give bit-identical simulations —
// the property that makes the reproduction's numbers citable.
#include <gtest/gtest.h>

#include "collectives/communicator.hpp"
#include "core/experiment.hpp"

namespace composim {
namespace {

core::ExperimentResult runOnce(core::SystemConfig cfg) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 6;
  return core::Experiment::run(cfg, dl::workload("ResNet-50"), opt);
}

TEST(Determinism, ExperimentsAreBitIdentical) {
  const auto a = runOnce(core::SystemConfig::FalconGpus);
  const auto b = runOnce(core::SystemConfig::FalconGpus);
  EXPECT_EQ(a.training.mean_iteration_time, b.training.mean_iteration_time);
  EXPECT_EQ(a.training.simulated_time, b.training.simulated_time);
  EXPECT_EQ(a.training.samples_per_second, b.training.samples_per_second);
  EXPECT_EQ(a.gpu_util_pct, b.gpu_util_pct);
  EXPECT_EQ(a.falcon_pcie_gbs, b.falcon_pcie_gbs);
  ASSERT_EQ(a.training.loss_curve.size(), b.training.loss_curve.size());
  for (std::size_t i = 0; i < a.training.loss_curve.size(); ++i) {
    EXPECT_EQ(a.training.loss_curve[i], b.training.loss_curve[i]);
  }
}

TEST(Determinism, CollectivesAreBitIdentical) {
  auto measure = [] {
    core::ComposableSystem sys(core::SystemConfig::FalconGpus);
    std::vector<fabric::NodeId> ranks;
    for (auto* g : sys.trainingGpus()) ranks.push_back(g->node());
    collectives::Communicator comm(sys.sim(), sys.network(), sys.topology(), ranks);
    SimTime d = 0.0;
    comm.allReduce(units::MiB(333),
                   [&](const collectives::CollectiveResult& r) { d = r.duration(); });
    sys.sim().run();
    return d;
  };
  EXPECT_EQ(measure(), measure());
}

TEST(Determinism, FlowHeavySimulationIsBitIdentical) {
  // Stresses the incremental solver's completion heap and component
  // bookkeeping: hundreds of staggered flows on a shared star must finish
  // at bit-identical times run over run, so figure benches stay
  // byte-stable.
  auto measure = [] {
    Simulator sim;
    fabric::Topology topo;
    fabric::FlowNetwork net(sim, topo);
    const auto hub = topo.addNode("hub", fabric::NodeKind::PcieSwitch);
    std::vector<fabric::NodeId> leaves;
    for (int i = 0; i < 8; ++i) {
      leaves.push_back(topo.addNode(std::string("l").append(std::to_string(i)),
                                    fabric::NodeKind::Gpu));
      topo.addDuplexLink(leaves.back(), hub, units::GBps(10), 0.0,
                         fabric::LinkKind::PCIe4);
    }
    std::vector<SimTime> ends;
    for (int f = 0; f < 300; ++f) {
      const auto src = static_cast<std::size_t>(f % 8);
      const auto dst = static_cast<std::size_t>((f + 3) % 8);
      const Bytes payload = units::MiB(4 + f % 13);
      sim.schedule(1e-4 * f, [&, src, dst, payload] {
        net.startFlow(leaves[src], leaves[dst], payload,
                      [&](const fabric::FlowResult& r) { ends.push_back(r.end); });
      });
    }
    sim.run();
    return ends;
  };
  const auto a = measure();
  const auto b = measure();
  ASSERT_EQ(a.size(), 300u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Determinism, SeedChangesOnlyStochasticOutputs) {
  // Different trainer seed: timing identical (the performance model is
  // deterministic), only the synthetic loss noise differs.
  auto run = [](std::uint64_t seed) {
    core::ExperimentOptions opt;
    opt.trainer.epochs = 1;
    opt.trainer.max_iterations_per_epoch = 6;
    opt.trainer.seed = seed;
    return core::Experiment::run(core::SystemConfig::LocalGpus, dl::workload("ResNet-50"),
                                 opt);
  };
  const auto a = run(1);
  const auto b = run(2);
  EXPECT_EQ(a.training.mean_iteration_time, b.training.mean_iteration_time);
  EXPECT_NE(a.training.loss_curve.front(), b.training.loss_curve.front());
}

}  // namespace
}  // namespace composim
