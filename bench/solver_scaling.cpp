// Solver/routing scaling gate: sweeps synthetic multi-chassis fabrics
// (1 -> 8 chassis, 8 -> 64 GPUs) and measures
//
//   - cold routes/s of the latency-weighted Dijkstra (cache invalidated
//     between reps so the path computation is timed, not the memo map);
//   - wall-clock of a full-fabric collective setup (cross-fabric shift
//     pattern, gpu i -> shiftDst(i), so every flow shares trunk links and
//     the solver sees one big component) admitted one startFlow() at a
//     time vs one batched startFlows() call, with a
//     bit-identity check on every post-arrival rate and every completion
//     (bytes + end time) between the two admission orders;
//   - steady-state allocation count of warmed routeCached() hits via a
//     counting global operator new (must be zero);
//   - allocation count of one warmed 8-GPU ring wave, startWave() through
//     delivery, with the same counter (bench::kWaveAllocBudget: none);
//   - allocation count of one warmed Communicator::allReduce at 2, 4 and
//     8 ranks, call through completion callback (bench::
//     kAllReduceAllocBudget: none, so it cannot grow with rank or step
//     count);
//   - allocation count of warmed metrics scrapes (MetricsScraper::
//     scrapeOnce) on a falconGPUs training run with every collector
//     Experiment::run attaches, the BMC's included (bench::
//     kScrapeAllocBudget: none).
//
// Results are appended as a "solver_scaling" section to an existing
// BENCH_simcore.json (written by micro_simcore); bench_json_validate
// checks the section's shape. The binary itself is the hard acceptance
// gate: it exits 1 when batched bit-identity fails, when steady-state
// routing allocates, when the warmed wave, a warmed all-reduce or a warmed
// scrape allocates more than its budget, or when the batched setup speedup
// at the largest (8-chassis, 64-flow) scenario is below 5x.
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "collectives/communicator.hpp"
#include "core/composable_system.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"
#include "fabric/flow_network.hpp"
#include "falcon/json.hpp"
#include "sim/units.hpp"
#include "telemetry/collectors.hpp"

using namespace composim;
using composim::falcon::Json;

// ---------------------------------------------------------------------------
// Counting allocator: every global operator new bumps the counter while
// g_count_allocs is set. Single-threaded binary, so plain variables do.
namespace {
bool g_count_allocs = false;
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line: inlined into std::allocator at -O3, the free() would trip
// GCC 12's -Wmismatched-new-delete against the operator new it pairs with.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

// Exact binary fractions (k / 2^20 seconds) so equal-cost alternatives
// sum bitwise-identically.
double lat(int k) { return static_cast<double>(k) / 1048576.0; }

struct Fabric {
  fabric::Topology topo;
  std::vector<fabric::NodeId> gpus;  // 8 per chassis, chassis-major
};

/// A chassis is 2 drawer hubs with 4 GPUs each plus a hub-hub trunk; the
/// chassis chain links hub1 of chassis c to hub0 of chassis c+1, with a
/// ring-closure link once there are more than two chassis.
void buildFabric(Fabric& f, int chassis) {
  std::vector<fabric::NodeId> hub0s, hub1s;
  for (int c = 0; c < chassis; ++c) {
    const fabric::NodeId h0 =
        f.topo.addNode(std::string("ch").append(std::to_string(c)) + ".hub0",
                       fabric::NodeKind::PcieSwitch);
    const fabric::NodeId h1 =
        f.topo.addNode(std::string("ch").append(std::to_string(c)) + ".hub1",
                       fabric::NodeKind::PcieSwitch);
    hub0s.push_back(h0);
    hub1s.push_back(h1);
    f.topo.addDuplexLink(h0, h1, units::GBps(32), lat(2),
                         fabric::LinkKind::PCIe4);
    for (int g = 0; g < 8; ++g) {
      const fabric::NodeId gpu =
          f.topo.addNode(std::string("ch").append(std::to_string(c)) + ".gpu" +
                             std::to_string(g),
                         fabric::NodeKind::Gpu);
      f.topo.addDuplexLink(gpu, g < 4 ? h0 : h1, units::GBps(16), lat(1),
                           fabric::LinkKind::PCIe4);
      f.gpus.push_back(gpu);
    }
  }
  for (int c = 0; c + 1 < chassis; ++c) {
    f.topo.addDuplexLink(hub1s[static_cast<std::size_t>(c)],
                         hub0s[static_cast<std::size_t>(c + 1)], units::GBps(8),
                         lat(4), fabric::LinkKind::PCIe4);
  }
  if (chassis > 2) {
    f.topo.addDuplexLink(hub1s.back(), hub0s.front(), units::GBps(8), lat(4),
                         fabric::LinkKind::PCIe4);
  }
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// All-pairs routing storm; invalidates the memo cache per rep so every
/// pair pays the path computation. Returns best-rep routes/second.
double measureRoutesPerSec(fabric::Topology& topo,
                           const std::vector<fabric::NodeId>& gpus, int reps) {
  double best = std::numeric_limits<double>::infinity();
  const auto pairs =
      static_cast<double>(gpus.size()) * static_cast<double>(gpus.size() - 1);
  for (int r = 0; r < reps; ++r) {
    topo.invalidateRoutes();
    const auto t0 = std::chrono::steady_clock::now();
    for (const fabric::NodeId a : gpus) {
      for (const fabric::NodeId b : gpus) {
        if (a == b) continue;
        if (!topo.routeCached(a, b).has_value()) {
          std::fprintf(stderr, "solver_scaling: unroutable GPU pair\n");
          std::exit(1);
        }
      }
    }
    best = std::min(best, secondsSince(t0));
  }
  return pairs / best;
}

struct SetupOutcome {
  std::vector<double> rates;      // per-flow rate right after admission
  std::vector<Bytes> bytes;       // completion bytes, arrival order
  std::vector<double> end_times;  // completion times, arrival order
  std::uint64_t recomputations = 0;
  double setup_seconds = 0.0;
};

/// Destination of flow i in the shift collective: gpu i + n/2, mod n. On
/// a chassis ring (> 2 chassis) that antipodal GPU is equally far both
/// ways round, and the router's node-id tie-break would split the flows
/// into a clockwise and a counter-clockwise component; half a chassis (4
/// GPUs) further makes every shortest path unique and clockwise, so all
/// flows stay one solver component.
std::size_t shiftDst(std::size_t i, std::size_t n) {
  const std::size_t chassis = n / 8;
  return (i + n / 2 + (chassis > 2 ? 4 : 0)) % n;
}

/// Admit a full-fabric shift collective (flow i: gpu i -> shiftDst(i) —
/// every flow crosses hub/chassis trunks, so all flows share a component
/// and serial arrival k re-solves k flows) either one startFlow at a time
/// or as a single startFlows batch, timing only the admission, then run
/// to completion for the bit-identity record.
SetupOutcome ringSetup(fabric::Topology& topo,
                       const std::vector<fabric::NodeId>& gpus, bool batched) {
  Simulator sim;
  fabric::FlowNetwork net(sim, topo);
  const std::size_t n = gpus.size();
  SetupOutcome out;
  out.bytes.assign(n, 0);
  out.end_times.assign(n, 0.0);
  const auto record = [&out](std::size_t i) {
    return [&out, i](const fabric::FlowResult& r) {
      out.bytes[i] = r.bytes;
      out.end_times[i] = r.end;
    };
  };
  std::vector<fabric::FlowId> ids;
  ids.reserve(n);
  const auto t0 = std::chrono::steady_clock::now();
  if (batched) {
    std::vector<fabric::FlowRequest> reqs(n);
    for (std::size_t i = 0; i < n; ++i) {
      reqs[i].src = gpus[i];
      reqs[i].dst = gpus[shiftDst(i, n)];
      reqs[i].bytes = units::MiB(4);
      reqs[i].done = record(i);
    }
    ids = net.startFlows(std::move(reqs));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(net.startFlow(gpus[i], gpus[shiftDst(i, n)],
                                  units::MiB(4), record(i)));
    }
  }
  out.setup_seconds = secondsSince(t0);
  for (const fabric::FlowId id : ids) out.rates.push_back(net.flowRate(id));
  out.recomputations = net.rateRecomputations();
  sim.run();
  return out;
}

bool sameResults(const SetupOutcome& a, const SetupOutcome& b) {
  return a.rates == b.rates && a.bytes == b.bytes && a.end_times == b.end_times;
}

/// Warmed routeCached() hits must be allocation-free: the cache returns a
/// reference, the lookup key is arithmetic, and the scratch is epoch-
/// stamped — nothing on the steady path should touch the heap.
std::size_t steadyStateAllocs(fabric::Topology& topo,
                              const std::vector<fabric::NodeId>& gpus) {
  for (const fabric::NodeId a : gpus) {
    for (const fabric::NodeId b : gpus) {
      if (a != b) (void)topo.routeCached(a, b);  // warm every pair once
    }
  }
  g_alloc_count = 0;
  g_count_allocs = true;
  for (const fabric::NodeId a : gpus) {
    for (const fabric::NodeId b : gpus) {
      if (a != b) (void)topo.routeCached(a, b);
    }
  }
  g_count_allocs = false;
  return g_alloc_count;
}

constexpr std::size_t kWaveFlows = 8;

/// Allocations of one warmed delivery wave: an 8-GPU ring (gpu i -> gpu
/// i+1) admitted by one startWave() call and run through delivery, on a
/// network that has already run the same wave three times. The requests
/// are built before counting and the caller keeps their vector, as
/// Communicator does: admission and the delivery path (route scratch,
/// slot reuse, batch events, callback hand-off) must not allocate.
std::size_t warmWaveAllocs(fabric::Topology& topo,
                           const std::vector<fabric::NodeId>& gpus) {
  Simulator sim;
  fabric::FlowNetwork net(sim, topo);
  std::size_t delivered = 0;
  std::vector<fabric::FlowRequest> reqs;
  const auto ring = [&] {
    reqs.assign(kWaveFlows, {});
    for (std::size_t i = 0; i < kWaveFlows; ++i) {
      reqs[i].src = gpus[i];
      reqs[i].dst = gpus[(i + 1) % kWaveFlows];
      reqs[i].bytes = units::MiB(4);
      reqs[i].done = [&delivered](const fabric::FlowResult&) { ++delivered; };
    }
  };
  for (int warm = 0; warm < 3; ++warm) {
    ring();
    net.startWave(reqs);
    sim.run();
  }
  ring();
  g_alloc_count = 0;
  g_count_allocs = true;
  net.startWave(reqs);
  sim.run();
  g_count_allocs = false;
  if (delivered != 4 * kWaveFlows) {
    std::fprintf(stderr, "solver_scaling: ring wave delivered %zu of %zu\n",
                 delivered, 4 * kWaveFlows);
    std::exit(1);
  }
  return g_alloc_count;
}

/// Allocations of one warmed all-reduce over the first `ranks` GPUs: a
/// ring of 2(ranks - 1) steps, counted from the allReduce() call through
/// its completion callback on a communicator that has run the same
/// all-reduce three times.
std::size_t warmAllReduceAllocs(fabric::Topology& topo,
                                const std::vector<fabric::NodeId>& gpus,
                                std::size_t ranks) {
  Simulator sim;
  fabric::FlowNetwork net(sim, topo);
  collectives::Communicator comm(
      sim, net, topo,
      std::vector<fabric::NodeId>(gpus.begin(),
                                  gpus.begin() + static_cast<std::ptrdiff_t>(ranks)));
  int completed = 0;
  const auto once = [&] {
    comm.allReduce(units::MiB(16),
                   [&completed](const collectives::CollectiveResult&) { ++completed; });
    sim.run();
  };
  for (int warm = 0; warm < 3; ++warm) once();
  g_alloc_count = 0;
  g_count_allocs = true;
  once();
  g_count_allocs = false;
  if (completed != 4) {
    std::fprintf(stderr, "solver_scaling: %zu-rank all-reduce completed %d of 4\n",
                 ranks, completed);
    std::exit(1);
  }
  return g_alloc_count;
}

constexpr int kScrapes = 20;

/// Allocations of kScrapes warmed scrapes of a ResNet-50 falconGPUs run's
/// metrics pipeline, wired with the collectors Experiment::run attaches.
/// The run scrapes on its own cadence for 2 s of simulated time; then the
/// periodic ticks stop, every series gets room for the measured scrapes
/// (capacity growth is not what this counts), and each counted scrapeOnce()
/// follows one more scrape interval of training, so the iteration
/// histogram always has fresh samples to merge.
std::size_t warmScrapeAllocs() {
  constexpr SimTime kInterval = 0.25;  // ExperimentOptions::sample_interval
  core::ComposableSystem sys(core::SystemConfig::FalconGpus);
  Simulator& sim = sys.sim();
  const std::vector<devices::Gpu*> gpus = sys.trainingGpus();
  const dl::ModelSpec model = dl::workload("ResNet-50");
  dl::TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 1000;
  dl::Trainer trainer(sim, sys.network(), sys.topology(), gpus, sys.cpu(),
                      sys.hostMemory(), sys.trainingStorage(), model,
                      dl::datasetFor(model), opt);
  telemetry::MetricsPipeline metrics(sim, kInterval);
  telemetry::MetricsScraper& scraper = metrics.scraper();
  telemetry::MetricsRegistry& registry = metrics.registry();
  telemetry::collectGpus(scraper, registry, {gpus.begin(), gpus.end()});
  telemetry::collectHostCpu(scraper, registry, sys.cpu());
  telemetry::collectFalconPcie(scraper, registry, [&sys] {
    return static_cast<double>(sys.falconGpuPortBytes());
  });
  telemetry::collectFabricLinks(scraper, registry, sys.topology(),
                                telemetry::hostAdapterLinks(sys.topology()));
  telemetry::collectBmc(scraper, registry, sys.bmc());
  telemetry::observeTrainer(registry, trainer);

  bool finished = false;
  scraper.start();
  trainer.start([&finished](const dl::TrainingResult&) { finished = true; });
  sim.runUntil(2.0);
  scraper.stopAndCancelTick();
  scraper.reserveSeries(kScrapes);
  g_alloc_count = 0;
  for (int i = 0; i < kScrapes; ++i) {
    sim.runUntil(sim.now() + kInterval);
    g_count_allocs = true;
    scraper.scrapeOnce();
    g_count_allocs = false;
  }
  const std::size_t samples = registry.histogram("train_iteration_ms").count();
  if (finished || samples == 0) {
    std::fprintf(stderr,
                 "solver_scaling: scrape gate's training run %s (%zu iterations)\n",
                 finished ? "finished early" : "never iterated", samples);
    std::exit(1);
  }
  return g_alloc_count;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: solver_scaling <BENCH_simcore.json>\n");
    return 1;
  }

  constexpr int kRouteReps = 20;
  constexpr int kSetupReps = 30;
  const std::vector<int> kChassis = {1, 2, 4, 8};

  Json scenarios = Json::array();
  bool ok = true;
  double largest_speedup = 0.0;
  std::size_t steady_allocs = 0;
  std::size_t wave_allocs = 0;
  Json allreduce_allocs = Json::array();

  for (const int chassis : kChassis) {
    Fabric f;
    buildFabric(f, chassis);

    const double rps = measureRoutesPerSec(f.topo, f.gpus, kRouteReps);
    if (chassis == kChassis.front()) {
      wave_allocs = warmWaveAllocs(f.topo, f.gpus);
      for (const std::size_t ranks : {2, 4, 8}) {
        const std::size_t allocs = warmAllReduceAllocs(f.topo, f.gpus, ranks);
        std::printf("warmed %zu-rank all-reduce allocations: %zu\n", ranks,
                    allocs);
        if (allocs > bench::kAllReduceAllocBudget) {
          std::fprintf(stderr,
                       "solver_scaling: warmed %zu-rank all-reduce allocated "
                       "%zu times (budget %zu)\n",
                       ranks, allocs, bench::kAllReduceAllocBudget);
          ok = false;
        }
        Json a = Json::object();
        a.set("ranks", static_cast<std::int64_t>(ranks));
        a.set("allocs", static_cast<std::int64_t>(allocs));
        allreduce_allocs.push(std::move(a));
      }
    }

    // Best-of-reps admission wall-clock; the same warmed topology serves
    // both orders so only the solver epochs differ.
    double serial_best = std::numeric_limits<double>::infinity();
    double batched_best = std::numeric_limits<double>::infinity();
    SetupOutcome serial, batched;
    for (int r = 0; r < kSetupReps; ++r) {
      serial = ringSetup(f.topo, f.gpus, /*batched=*/false);
      batched = ringSetup(f.topo, f.gpus, /*batched=*/true);
      serial_best = std::min(serial_best, serial.setup_seconds);
      batched_best = std::min(batched_best, batched.setup_seconds);
    }
    const bool bit_identical = sameResults(serial, batched);
    const double speedup = serial_best / batched_best;
    if (chassis == kChassis.back()) {
      largest_speedup = speedup;
      steady_allocs = steadyStateAllocs(f.topo, f.gpus);
    }

    Json s = Json::object();
    s.set("chassis", static_cast<std::int64_t>(chassis));
    s.set("gpus", static_cast<std::int64_t>(f.gpus.size()));
    s.set("nodes", static_cast<std::int64_t>(f.topo.nodeCount()));
    s.set("links", static_cast<std::int64_t>(f.topo.linkCount()));
    s.set("routes_per_sec_flat", rps);
    s.set("serial_setup_sec", serial_best);
    s.set("batched_setup_sec", batched_best);
    s.set("batched_speedup", speedup);
    s.set("batched_bit_identical", bit_identical);
    s.set("serial_recomputations",
          static_cast<std::int64_t>(serial.recomputations));
    s.set("batched_recomputations",
          static_cast<std::int64_t>(batched.recomputations));
    scenarios.push(std::move(s));

    std::printf(
        "chassis=%d gpus=%zu  routes/s=%.3g  "
        "setup serial=%.3gs batched=%.3gs (%.2fx)  bitident=%d  "
        "solves %llu -> %llu\n",
        chassis, f.gpus.size(), rps, serial_best, batched_best, speedup,
        bit_identical ? 1 : 0,
        static_cast<unsigned long long>(serial.recomputations),
        static_cast<unsigned long long>(batched.recomputations));

    if (!bit_identical) {
      std::fprintf(stderr, "solver_scaling: batched arrival is not "
                           "bit-identical to serial at %d chassis\n", chassis);
      ok = false;
    }
  }

  const std::size_t scrape_allocs = warmScrapeAllocs();
  std::printf("warmed scrape allocations over %d scrapes: %zu\n", kScrapes,
              scrape_allocs);
  if (scrape_allocs > bench::kScrapeAllocBudget) {
    std::fprintf(stderr,
                 "solver_scaling: %d warmed scrapes allocated %zu times "
                 "(budget %zu)\n",
                 kScrapes, scrape_allocs, bench::kScrapeAllocBudget);
    ok = false;
  }

  std::printf("steady-state routeCached allocations: %zu\n", steady_allocs);
  if (steady_allocs != 0) {
    std::fprintf(stderr, "solver_scaling: warmed routeCached() allocated\n");
    ok = false;
  }
  std::printf("warmed %zu-flow wave allocations: %zu\n", kWaveFlows,
              wave_allocs);
  if (wave_allocs > bench::kWaveAllocBudget) {
    std::fprintf(stderr,
                 "solver_scaling: warmed %zu-flow wave allocated %zu times "
                 "(budget %zu)\n",
                 kWaveFlows, wave_allocs, bench::kWaveAllocBudget);
    ok = false;
  }
  if (largest_speedup < 5.0) {
    std::fprintf(stderr,
                 "solver_scaling: batched setup speedup %.2fx at 8 chassis "
                 "is below the 5x gate\n",
                 largest_speedup);
    ok = false;
  }

  // Append the section to micro_simcore's export (read-modify-write).
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "solver_scaling: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  Json doc;
  try {
    doc = Json::parse(buf.str());
  } catch (const falcon::JsonError& e) {
    std::fprintf(stderr, "solver_scaling: %s: %s\n", argv[1], e.what());
    return 1;
  }
  Json section = Json::object();
  section.set("scenarios", scenarios);
  section.set("route_steady_allocs", static_cast<std::int64_t>(steady_allocs));
  section.set("wave_flows", static_cast<std::int64_t>(kWaveFlows));
  section.set("wave_allocs", static_cast<std::int64_t>(wave_allocs));
  section.set("allreduce_allocs", std::move(allreduce_allocs));
  section.set("scrapes", static_cast<std::int64_t>(kScrapes));
  section.set("scrape_allocs", static_cast<std::int64_t>(scrape_allocs));
  doc.set("solver_scaling", std::move(section));
  std::ofstream outf(argv[1]);
  outf << doc.dump(2) << "\n";
  if (!outf.good()) {
    std::fprintf(stderr, "solver_scaling: cannot rewrite %s\n", argv[1]);
    return 1;
  }
  return ok ? 0 : 1;
}
