// Solver/routing scaling gate: sweeps synthetic multi-chassis fabrics
// (1 -> 8 chassis, 8 -> 64 GPUs) and measures
//
//   - routes/s with flat Dijkstra vs hierarchical domain-table routing
//     (cache invalidated between reps so the path computation is timed,
//     not the memo map), with an all-pairs exact-latency equivalence
//     check between the two modes;
//   - wall-clock of a full-fabric collective setup (cross-fabric shift
//     pattern, gpu i -> gpu i+n/2, so every flow shares trunk links and
//     the solver sees one big component) admitted one startFlow() at a
//     time vs one batched startFlows() call, with a
//     bit-identity check on every post-arrival rate and every completion
//     (bytes + end time) between the two admission orders;
//   - steady-state allocation count of warmed routeCached() hits via a
//     counting global operator new (must be zero).
//
// Results are appended as a "solver_scaling" section to an existing
// BENCH_simcore.json (written by micro_simcore); bench_json_validate
// checks the section's shape. The binary itself is the hard acceptance
// gate: it exits 1 when route equivalence or batched bit-identity fails,
// when steady-state routing allocates, or when the batched setup speedup
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

#include "collectives/communicator.hpp"
#include "fabric/flow_network.hpp"
#include "falcon/json.hpp"
#include "sim/units.hpp"

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
// sum bitwise-identically and the flat-vs-hierarchical latency compare
// can use operator== instead of a tolerance.
double lat(int k) { return static_cast<double>(k) / 1048576.0; }

struct Fabric {
  fabric::Topology topo;
  std::vector<fabric::NodeId> gpus;  // 8 per chassis, chassis-major
};

/// A chassis is 2 drawer hubs with 4 GPUs each plus a hub-hub trunk; the
/// chassis chain links hub1 of chassis c to hub0 of chassis c+1, with a
/// ring-closure link once there are more than two chassis. One routing
/// domain per chassis.
void buildFabric(Fabric& f, int chassis, bool hierarchical) {
  std::vector<fabric::NodeId> hub0s, hub1s;
  for (int c = 0; c < chassis; ++c) {
    const auto dom = static_cast<fabric::DomainId>(c);
    const fabric::NodeId h0 =
        f.topo.addNode(std::string("ch").append(std::to_string(c)) + ".hub0",
                       fabric::NodeKind::PcieSwitch);
    const fabric::NodeId h1 =
        f.topo.addNode(std::string("ch").append(std::to_string(c)) + ".hub1",
                       fabric::NodeKind::PcieSwitch);
    f.topo.setNodeDomain(h0, dom);
    f.topo.setNodeDomain(h1, dom);
    hub0s.push_back(h0);
    hub1s.push_back(h1);
    f.topo.addDuplexLink(h0, h1, units::GBps(32), lat(2),
                         fabric::LinkKind::PCIe4);
    for (int g = 0; g < 8; ++g) {
      const fabric::NodeId gpu =
          f.topo.addNode(std::string("ch").append(std::to_string(c)) + ".gpu" +
                             std::to_string(g),
                         fabric::NodeKind::Gpu);
      f.topo.setNodeDomain(gpu, dom);
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
  f.topo.setHierarchicalRouting(hierarchical);
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

/// Flat-oracle equivalence over all GPU pairs: identical reachability and
/// bit-identical path latency (paths themselves may differ among
/// equal-cost alternatives).
bool routesEquivalent(const fabric::Topology& topo,
                      const std::vector<fabric::NodeId>& gpus) {
  for (const fabric::NodeId a : gpus) {
    for (const fabric::NodeId b : gpus) {
      if (a == b) continue;
      const auto flat = topo.routeFlat(a, b);
      const auto& hier = topo.routeCached(a, b);
      if (flat.has_value() != hier.has_value()) return false;
      if (flat && flat->latency != hier->latency) return false;
    }
  }
  return true;
}

struct SetupOutcome {
  std::vector<double> rates;      // per-flow rate right after admission
  std::vector<Bytes> bytes;       // completion bytes, arrival order
  std::vector<double> end_times;  // completion times, arrival order
  std::uint64_t recomputations = 0;
  double setup_seconds = 0.0;
};

/// Admit a full-fabric shift collective (flow i: gpu i -> gpu i+n/2
/// mod n — every flow crosses hub/chassis trunks, so all flows share a
/// component and serial arrival k re-solves k flows) either one
/// startFlow at a time or as a single startFlows batch, timing only the
/// admission, then run to completion for the bit-identity record.
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
      reqs[i].dst = gpus[(i + n / 2) % n];
      reqs[i].bytes = units::MiB(4);
      reqs[i].done = record(i);
    }
    ids = net.startFlows(std::move(reqs));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(net.startFlow(gpus[i], gpus[(i + n / 2) % n],
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

  for (const int chassis : kChassis) {
    Fabric flat, hier;
    buildFabric(flat, chassis, /*hierarchical=*/false);
    buildFabric(hier, chassis, /*hierarchical=*/true);

    const double flat_rps = measureRoutesPerSec(flat.topo, flat.gpus, kRouteReps);
    const double hier_rps = measureRoutesPerSec(hier.topo, hier.gpus, kRouteReps);
    const bool equivalent = routesEquivalent(hier.topo, hier.gpus);

    // Best-of-reps admission wall-clock; the same warmed topology serves
    // both orders so only the solver epochs differ.
    double serial_best = std::numeric_limits<double>::infinity();
    double batched_best = std::numeric_limits<double>::infinity();
    SetupOutcome serial, batched;
    for (int r = 0; r < kSetupReps; ++r) {
      serial = ringSetup(hier.topo, hier.gpus, /*batched=*/false);
      batched = ringSetup(hier.topo, hier.gpus, /*batched=*/true);
      serial_best = std::min(serial_best, serial.setup_seconds);
      batched_best = std::min(batched_best, batched.setup_seconds);
    }
    const bool bit_identical = sameResults(serial, batched);
    const double speedup = serial_best / batched_best;
    if (chassis == kChassis.back()) {
      largest_speedup = speedup;
      steady_allocs = steadyStateAllocs(hier.topo, hier.gpus);
    }

    Json s = Json::object();
    s.set("chassis", static_cast<std::int64_t>(chassis));
    s.set("gpus", static_cast<std::int64_t>(hier.gpus.size()));
    s.set("nodes", static_cast<std::int64_t>(hier.topo.nodeCount()));
    s.set("links", static_cast<std::int64_t>(hier.topo.linkCount()));
    s.set("routes_per_sec_flat", flat_rps);
    s.set("routes_per_sec_hier", hier_rps);
    s.set("hier_speedup", hier_rps / flat_rps);
    s.set("route_equivalent", equivalent);
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
        "chassis=%d gpus=%zu  routes/s flat=%.3g hier=%.3g (%.2fx)  "
        "setup serial=%.3gs batched=%.3gs (%.2fx)  equiv=%d bitident=%d  "
        "solves %llu -> %llu\n",
        chassis, hier.gpus.size(), flat_rps, hier_rps, hier_rps / flat_rps,
        serial_best, batched_best, speedup, equivalent ? 1 : 0,
        bit_identical ? 1 : 0,
        static_cast<unsigned long long>(serial.recomputations),
        static_cast<unsigned long long>(batched.recomputations));

    if (!equivalent) {
      std::fprintf(stderr, "solver_scaling: hierarchical routes diverge from "
                           "the flat oracle at %d chassis\n", chassis);
      ok = false;
    }
    if (!bit_identical) {
      std::fprintf(stderr, "solver_scaling: batched arrival is not "
                           "bit-identical to serial at %d chassis\n", chassis);
      ok = false;
    }
  }

  std::printf("steady-state routeCached allocations: %zu\n", steady_allocs);
  if (steady_allocs != 0) {
    std::fprintf(stderr, "solver_scaling: warmed routeCached() allocated\n");
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
  doc.set("solver_scaling", std::move(section));
  std::ofstream outf(argv[1]);
  outf << doc.dump(2) << "\n";
  if (!outf.good()) {
    std::fprintf(stderr, "solver_scaling: cannot rewrite %s\n", argv[1]);
    return 1;
  }
  return ok ? 0 : 1;
}
