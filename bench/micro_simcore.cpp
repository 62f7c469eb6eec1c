// google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, routing, max-min rate recomputation, collective
// simulation cost, and a full capped training iteration. These bound how
// much wall-clock each figure reproduction costs.
//
// Besides the console output, every run exports BENCH_simcore.json
// (override the path with COMPOSIM_BENCH_JSON) so CI and EXPERIMENTS.md
// can track items/sec without scraping the console table.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "collectives/communicator.hpp"
#include "core/composable_system.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"
#include "fabric/link_catalog.hpp"
#include "fabric/nvlink_mesh.hpp"
#include "falcon/json.hpp"

using namespace composim;

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    int sink = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule(static_cast<double>(i % 97), [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_TopologyRouting(benchmark::State& state) {
  core::ComposableSystem sys(core::SystemConfig::FalconGpus);
  auto& topo = sys.topology();
  const auto a = sys.falconGpus()[0]->node();
  const auto b = sys.localGpus()[7]->node();
  for (auto _ : state) {
    // Invalidate the cache each round to measure Dijkstra, not the map.
    topo.setLinkUp(0, true);
    auto r = topo.route(a, b);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TopologyRouting);

void BM_MaxMinRecompute(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
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
    state.ResumeTiming();
    for (int f = 0; f < flows; ++f) {
      net.startFlow(leaves[static_cast<std::size_t>(f % 8)],
                    leaves[static_cast<std::size_t>((f + 3) % 8)],
                    units::MiB(8), [](const fabric::FlowResult&) {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_MaxMinRecompute)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_RingAllReduceSimulation(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    fabric::Topology topo;
    fabric::FlowNetwork net(sim, topo);
    std::vector<fabric::NodeId> gpus;
    for (int i = 0; i < 8; ++i) {
      gpus.push_back(topo.addNode(std::string("g").append(std::to_string(i)),
                                  fabric::NodeKind::Gpu));
    }
    fabric::buildHybridCubeMesh(topo, gpus);
    collectives::Communicator comm(sim, net, topo, gpus);
    comm.allReduce(units::MiB(256), [](const collectives::CollectiveResult&) {});
    sim.run();
  }
}
BENCHMARK(BM_RingAllReduceSimulation);

void BM_TrainingIterationSimulation(benchmark::State& state) {
  for (auto _ : state) {
    core::ComposableSystem sys(core::SystemConfig::LocalGpus);
    const auto model = dl::workload("ResNet-50");
    dl::TrainerOptions opt;
    opt.epochs = 1;
    opt.max_iterations_per_epoch = 3;
    auto gpus = sys.trainingGpus();
    dl::Trainer t(sys.sim(), sys.network(), sys.topology(), gpus, sys.cpu(),
                  sys.hostMemory(), sys.trainingStorage(), model,
                  dl::datasetFor(model), opt);
    t.start([](const dl::TrainingResult&) {});
    sys.sim().run();
  }
}
BENCHMARK(BM_TrainingIterationSimulation);

// Console reporter that additionally collects per-run metrics for the
// JSON export. Aggregates and errored runs are skipped; items_per_second
// comes from SetItemsProcessed (0 for benchmarks that do not set it).
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      falcon::Json entry = falcon::Json::object();
      entry.set("name", run.benchmark_name());
      entry.set("real_time_ns", run.GetAdjustedRealTime());
      entry.set("iterations", static_cast<std::int64_t>(run.iterations));
      const auto it = run.counters.find("items_per_second");
      entry.set("items_per_second",
                it != run.counters.end() ? static_cast<double>(it->second) : 0.0);
      runs_.push(std::move(entry));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  falcon::Json document() const {
    falcon::Json doc = falcon::Json::object();
    doc.set("schema", "composim.bench.simcore/1");
    doc.set("benchmarks", runs_);
    return doc;
  }

 private:
  falcon::Json runs_ = falcon::Json::array();
};

}  // namespace

int main(int argc, char** argv) {
  // The bundled google-benchmark predates the "0.01x" iteration-suffix
  // syntax for --benchmark_min_time; strip a trailing 'x' so callers (the
  // bench_smoke ctest) can pass the suffixed form.
  std::vector<std::string> args(argv, argv + argc);
  for (std::string& a : args) {
    constexpr std::string_view kMinTime = "--benchmark_min_time=";
    if (a.compare(0, kMinTime.size(), kMinTime) == 0 && a.back() == 'x') {
      a.pop_back();
    }
  }
  std::vector<char*> argp;
  argp.reserve(args.size());
  for (std::string& a : args) argp.push_back(a.data());
  int argn = static_cast<int>(argp.size());

  benchmark::Initialize(&argn, argp.data());
  if (benchmark::ReportUnrecognizedArguments(argn, argp.data())) return 1;
  JsonExportReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const char* path = std::getenv("COMPOSIM_BENCH_JSON");
  if (path == nullptr) path = "BENCH_simcore.json";
  std::ofstream out(path);
  out << reporter.document().dump(2) << "\n";
  return out.good() ? 0 : 1;
}
