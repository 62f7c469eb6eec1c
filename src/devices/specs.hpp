// composim: device specification catalog.
//
// Public-datasheet constants for the hardware in the paper's test bed
// (Section V-A): NVIDIA Tesla V100-SXM2 / V100-PCIE / P100, Intel Xeon
// Gold 6148 hosts, Intel 4 TB NVMe drives and the SATA boot SSD.
#pragma once

#include <string>

#include "sim/units.hpp"

namespace composim::devices {

struct GpuSpec {
  std::string name;
  double fp32_flops;      // peak FLOP/s, FP32 CUDA cores
  double fp16_flops;      // peak FLOP/s, FP16 tensor cores
  Bandwidth mem_bandwidth;  // HBM2 bytes/s
  Bytes mem_capacity;
  int nvlink_bricks;      // 0 for PCIe-only parts
  SimTime kernel_launch_overhead;
};

struct CpuSpec {
  std::string name;
  int sockets;
  int cores_per_socket;
  int threads_per_core;
  double ghz;
  Bytes system_memory;
  int totalCores() const { return sockets * cores_per_socket; }
  int totalThreads() const { return totalCores() * threads_per_core; }
};

struct StorageSpec {
  std::string name;
  Bandwidth seq_read;
  Bandwidth seq_write;
  double random_read_efficiency;  // fraction of seq_read for small random IO
  SimTime access_latency;
  Bytes capacity;
};

namespace specs {

inline GpuSpec v100_sxm2() {
  return {"Tesla V100-SXM2-16GB", units::TFLOPS(15.7), units::TFLOPS(125.0),
          units::GBps(900.0), units::GiB(16), 6, units::microseconds(6.0)};
}

inline GpuSpec v100_pcie() {
  // The Falcon-attached parts: same silicon in PCIe form factor, no
  // NVLink. Compute rates are kept equal to the SXM2 part so the Fig 11
  // comparison isolates the fabric (the paper attributes the overhead to
  // PCIe switching, not to GPU binning).
  return {"Tesla V100-PCIE-16GB", units::TFLOPS(15.7), units::TFLOPS(125.0),
          units::GBps(900.0), units::GiB(16), 0, units::microseconds(6.0)};
}

inline GpuSpec p100_pcie() {
  return {"Tesla P100-PCIE-16GB", units::TFLOPS(9.3), units::TFLOPS(18.7),
          units::GBps(732.0), units::GiB(16), 0, units::microseconds(6.0)};
}

inline CpuSpec xeon_gold_6148() {
  return {"Intel Xeon Gold 6148", 2, 20, 2, 2.4, units::GiB(756)};
}

inline StorageSpec intel_nvme_4tb() {
  // Intel SSDPEDKX040T7 (DC P4500 4 TB): ~3.2 GB/s seq read.
  return {"Intel SSDPEDKX040T7 4TB NVMe", units::GBps(3.2), units::GBps(1.9),
          0.72, units::microseconds(85.0), units::GB(4000)};
}

inline StorageSpec sata_boot_ssd() {
  // The "local storage" of Table III's localGPUs/hybridGPUs/falconGPUs
  // rows: the hosts' boot SSD, not the NVMe drive. Scattered small-file
  // reads (the mosaic pattern) fall well below the sequential rate.
  return {"SATA boot SSD (local storage)", units::MBps(540.0), units::MBps(500.0),
          0.30, units::microseconds(180.0), units::GB(2000)};
}

}  // namespace specs
}  // namespace composim::devices
