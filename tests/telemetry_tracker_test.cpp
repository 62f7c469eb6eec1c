// Tests for the run tracker and bandwidth probe.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/composable_system.hpp"
#include "fabric/bandwidth_probe.hpp"
#include "telemetry/run_tracker.hpp"

namespace composim {
namespace {

TEST(RunTracker, LogsConfigSeriesAndSummary) {
  telemetry::RunTracker tracker;
  auto& run = tracker.run("exp1");
  run.setConfig("benchmark", "ResNet-50");
  run.log("loss", 0.0, 6.0);
  run.log("loss", 1.0, 5.0);
  run.setSummary("final_loss", 5.0);
  EXPECT_EQ(tracker.runCount(), 1u);
  ASSERT_NE(run.series("loss"), nullptr);
  EXPECT_EQ(run.series("loss")->size(), 2u);
  EXPECT_EQ(run.series("missing"), nullptr);
  EXPECT_EQ(run.metrics(), std::vector<std::string>{"loss"});
  // run() is idempotent per name.
  tracker.run("exp1").log("loss", 2.0, 4.0);
  EXPECT_EQ(tracker.runCount(), 1u);
  EXPECT_EQ(run.series("loss")->size(), 3u);
  EXPECT_EQ(tracker.find("exp1"), &run);
  EXPECT_EQ(tracker.find("nope"), nullptr);
}

TEST(RunTracker, ManifestCarriesEverything) {
  telemetry::RunTracker tracker;
  auto& run = tracker.run("r");
  run.setConfig("config", "localGPUs");
  run.setSummary("sps", 123.0);
  run.log("util", 0.0, 90.0);
  const auto manifest = tracker.manifest();
  const auto& runs = manifest.at("runs").asArray();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].at("name").asString(), "r");
  EXPECT_EQ(runs[0].at("config").at("config").asString(), "localGPUs");
  EXPECT_DOUBLE_EQ(runs[0].at("summary").at("sps").asDouble(), 123.0);
  EXPECT_EQ(runs[0].at("metrics").asArray()[0].asString(), "util");
}

TEST(RunTracker, ExportWritesManifestAndCsv) {
  const std::string dir = ::testing::TempDir() + "/composim_tracker";
  std::filesystem::create_directories(dir);
  telemetry::RunTracker tracker;
  auto& run = tracker.run("myrun");
  run.log("util", 0.0, 50.0);
  run.log("util", 1.0, 60.0);
  tracker.exportTo(dir);
  EXPECT_TRUE(std::filesystem::exists(dir + "/manifest.json"));
  std::ifstream csv(dir + "/myrun_util.csv");
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "time,util");
}

TEST(BandwidthProbe, MatchesTableIvPairs) {
  core::ComposableSystem sys(core::SystemConfig::FalconGpus);
  const auto ll = fabric::measureP2p(sys.sim(), sys.network(),
                                     sys.localGpus()[0]->node(),
                                     sys.localGpus()[1]->node());
  EXPECT_NEAR(units::to_GBps(ll.bidirectional), 72.4, 0.5);
  EXPECT_NEAR(units::to_us(ll.write_latency), 1.85, 0.02);
  const auto ff = fabric::measureP2p(sys.sim(), sys.network(),
                                     sys.falconGpus()[0]->node(),
                                     sys.falconGpus()[1]->node());
  EXPECT_NEAR(units::to_GBps(ff.bidirectional), 24.5, 0.3);
}

TEST(BandwidthProbe, MatrixIsSymmetricForSymmetricFabric) {
  core::ComposableSystem sys(core::SystemConfig::LocalGpus);
  std::vector<fabric::NodeId> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(sys.localGpus()[static_cast<std::size_t>(i)]->node());
  const auto m = fabric::bandwidthMatrix(sys.sim(), sys.network(), nodes);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(m[i][i], 0.0);
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;
      EXPECT_GT(m[i][j], 10.0);
      EXPECT_NEAR(m[i][j], m[j][i], 0.5);
    }
  }
}

TEST(DescribeRoute, NamesEveryHopAndTheBottleneck) {
  core::ComposableSystem sys(core::SystemConfig::FalconGpus);
  const auto desc = fabric::describeRoute(sys.topology(),
                                          sys.falconGpus()[0]->node(),
                                          sys.localGpus()[0]->node());
  EXPECT_NE(desc.find("gpu.falcon.d0s0"), std::string::npos);
  EXPECT_NE(desc.find("PCI-e 4.0"), std::string::npos);
  EXPECT_NE(desc.find("HostAdapter"), std::string::npos);
  EXPECT_NE(desc.find("gpu.local0"), std::string::npos);
  EXPECT_NE(desc.find("bottleneck 9.8 GB/s"), std::string::npos);
  // Disconnected endpoints.
  fabric::Topology t2;
  const auto a = t2.addNode("a", fabric::NodeKind::Gpu);
  const auto b = t2.addNode("b", fabric::NodeKind::Gpu);
  EXPECT_EQ(fabric::describeRoute(t2, a, b), "(no route)");
}

}  // namespace
}  // namespace composim
