// composim: calibrated link parameters.
//
// Effective (achievable) per-direction data rates and per-link latencies,
// calibrated so the Table IV p2p microbenchmark of the paper is reproduced
// by construction:
//
//   L-L  (NVLink, 2-link edge)     bidir 72.4 GB/s   latency 1.85 us
//   F-F  (PCIe4 via drawer switch) bidir 24.5 GB/s   latency 2.08 us
//   F-L  (PCIe4 via host adapter)  bidir 19.6 GB/s   latency 2.66 us
//
// The latency model is: endpoint DMA overhead (doorbell + engine start)
// plus the sum of per-link latencies along the route. Switch forwarding
// time is folded into the GPU<->switch link latency; root-complex
// forwarding is folded into the host-adapter link latency.
#pragma once

#include "fabric/topology.hpp"
#include "sim/units.hpp"

namespace composim::fabric {

struct LinkSpec {
  Bandwidth capacityPerDirection;
  SimTime latency;
  LinkKind kind;
};

namespace catalog {

/// One NVLink 2.0 brick: 25 GB/s raw per direction, ~72% payload
/// efficiency under CUDA p2p copies.
inline LinkSpec nvlink(int bricks = 1) {
  return {bricks * units::GBps(18.1), units::microseconds(0.55),
          LinkKind::NVLink};
}

/// PCIe 4.0 x16 between a Falcon slot and its drawer switch. The 0.39 us
/// includes the switch ASIC forwarding time (so an F-F route of two such
/// links lands at 2.08 us with the endpoint overhead).
inline LinkSpec pcie4_x16_slot() {
  return {units::GBps(12.25), units::microseconds(0.39), LinkKind::PCIe4};
}

/// PCIe 3.0 x16 between a local device and the host root complex.
inline LinkSpec pcie3_x16() {
  return {units::GBps(12.0), units::microseconds(0.30), LinkKind::PCIe3};
}

/// Host adapter: CDFP 400 Gb/s cable + PCIe4 x16 adapter card. Latency
/// includes root-complex forwarding on the host side; bandwidth reflects
/// the measured F-L bottleneck (p2p through the host root port).
inline LinkSpec hostAdapter() {
  return {units::GBps(9.82), units::microseconds(0.37), LinkKind::HostAdapter};
}

/// CPU <-> DRAM.
inline LinkSpec memoryBus() {
  return {units::GBps(100.0), units::microseconds(0.08), LinkKind::MemoryBus};
}

/// Fixed endpoint overhead applied by devices when they initiate a DMA
/// (p2p write doorbell + engine start). Calibrated against Table IV.
inline SimTime dmaEndpointOverhead() { return units::microseconds(1.30); }

}  // namespace catalog
}  // namespace composim::fabric
