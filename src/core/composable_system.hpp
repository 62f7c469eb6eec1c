// composim: top-level system assembly (paper Fig 6 topology + Table III).
//
// Builds the full experimental test bed in one object: a Supermicro-class
// host (Xeon 6148 pair, 756 GB, 8 local V100-SXM2 in a hybrid cube mesh
// behind two PLX switches), a Falcon 4016 with 4 V100-PCIE GPUs per drawer
// and an NVMe drive in drawer 2, host adapters into both drawers, local
// NVMe, the boot SSD, BMC and MCS. The Table III labels then select which
// GPUs and which storage device a training run uses:
//
//   localGPUs   8 local GPUs, local (boot SSD) storage
//   hybridGPUs  4 local + 4 falcon GPUs, local storage
//   falconGPUs  8 falcon GPUs, local storage
//   localNVMe   8 local GPUs, host-attached NVMe
//   falconNVMe  8 local GPUs, falcon-attached NVMe
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "devices/gpu.hpp"
#include "devices/host_cpu.hpp"
#include "devices/storage.hpp"
#include "fabric/flow_network.hpp"
#include "falcon/bmc.hpp"
#include "falcon/chassis.hpp"
#include "falcon/mcs.hpp"

namespace composim::core {

enum class SystemConfig {
  LocalGpus,
  HybridGpus,
  FalconGpus,
  LocalNvme,
  FalconNvme,
  /// Beyond Table III: the full Fig 6 composition — all 16 GPUs (8 local
  /// + 8 Falcon-attached) plus the local NVMe. The capability a fixed
  /// 8-GPU server cannot offer; used by the scaling extension study.
  AllGpus16,
};

const char* toString(SystemConfig c);

/// Falcon GPUs every configuration installs (4 per drawer); fault
/// schedules name them by index, 0 to kFalconGpus - 1.
inline constexpr int kFalconGpus = 8;
/// The free Falcon slots spare GPUs fill, in install order (the NVMe
/// holds slot {1, 4}).
inline constexpr std::array<falcon::SlotId, 7> kSpareGpuSlots = {
    {{0, 4}, {0, 5}, {0, 6}, {0, 7}, {1, 5}, {1, 6}, {1, 7}}};

/// All five Table III configurations in paper order.
std::vector<SystemConfig> allConfigs();
/// The three GPU-placement configurations (Fig 10-13 sweeps).
std::vector<SystemConfig> gpuConfigs();
/// The three storage-comparison configurations (Fig 15).
std::vector<SystemConfig> storageConfigs();
/// How many GPUs `c` trains on: ComposableSystem(c).trainingGpus().size()
/// without building the system.
std::size_t trainingGpuCount(SystemConfig c);

class ComposableSystem {
 public:
  explicit ComposableSystem(SystemConfig config);

  ComposableSystem(const ComposableSystem&) = delete;
  ComposableSystem& operator=(const ComposableSystem&) = delete;

  SystemConfig config() const { return config_; }

  Simulator& sim() { return sim_; }
  fabric::Topology& topology() { return topo_; }
  fabric::FlowNetwork& network() { return *net_; }
  devices::HostCpu& cpu() { return *cpu_; }
  fabric::NodeId hostMemory() const { return host_memory_; }
  fabric::NodeId hostRoot() const { return host_root_; }

  /// The GPUs this configuration trains on (8, or 16 for AllGpus16),
  /// ring-friendly order (local first, then falcon).
  std::vector<devices::Gpu*> trainingGpus();

  /// Second tenant host (advanced-mode / co-tenancy studies): a second
  /// root complex + memory + CPU wired to ports H2 and H4. Idempotent.
  struct SecondHost {
    fabric::NodeId root = fabric::kInvalidNode;
    fabric::NodeId memory = fabric::kInvalidNode;
    devices::HostCpu* cpu = nullptr;
  };
  SecondHost attachSecondHost();
  /// The storage device this configuration loads data from.
  devices::StorageDevice& trainingStorage();

  const std::vector<std::unique_ptr<devices::Gpu>>& localGpus() const {
    return local_gpus_;
  }
  const std::vector<std::unique_ptr<devices::Gpu>>& falconGpus() const {
    return falcon_gpus_;
  }
  devices::StorageDevice& localNvme() { return *local_nvme_; }
  devices::StorageDevice& falconNvme() { return *falcon_nvme_; }
  devices::StorageDevice& bootSsd() { return *boot_ssd_; }

  falcon::FalconChassis& chassis() { return *chassis_; }
  falcon::Bmc& bmc() { return *bmc_; }
  falcon::Mcs& mcs() { return *mcs_; }

  /// Install a spare V100-PCIE in an empty Falcon slot, occupied but
  /// unassigned — exactly the inventory the AllocationPlanner draws on
  /// when the recovery orchestrator asks for a replacement. Returns the
  /// device (owned by the system); throws on an occupied slot.
  devices::Gpu* installSpareGpu(falcon::SlotId slot);

  /// Slot a Falcon GPU (training or spare) was installed in; nullopt for
  /// local GPUs. The mapping is fixed at install time and survives
  /// quarantine (removeDevice), so recovery code can name the slot of a
  /// device that already fell off the bus.
  std::optional<falcon::SlotId> slotOfGpu(const devices::Gpu* gpu) const;

  /// Falcon GPU (training or spare) installed in `slot`; nullptr if none.
  devices::Gpu* gpuInSlot(falcon::SlotId slot);

  /// Cumulative ingress+egress payload bytes over the PCIe links of the
  /// *Falcon GPU slots* (what the paper measured for Fig 12).
  Bytes falconGpuPortBytes() const;

  /// Mean busy fraction of the falcon GPUs in drawer `drawer` (thermal
  /// source registered with the BMC).
  double drawerActivity(int drawer) const;

 private:
  void buildHost();
  void buildFalcon();
  void applyConfig();

  SystemConfig config_;
  Simulator sim_;
  fabric::Topology topo_;
  std::unique_ptr<fabric::FlowNetwork> net_;
  std::unique_ptr<devices::HostCpu> cpu_;
  fabric::NodeId host_root_ = fabric::kInvalidNode;
  fabric::NodeId host_memory_ = fabric::kInvalidNode;
  std::array<fabric::NodeId, 2> plx_{};  // on-board PCIe switches
  std::vector<std::unique_ptr<devices::Gpu>> local_gpus_;
  std::vector<std::unique_ptr<devices::Gpu>> falcon_gpus_;
  std::vector<falcon::SlotId> falcon_gpu_slots_;
  std::vector<std::unique_ptr<devices::Gpu>> spare_gpus_;
  std::vector<falcon::SlotId> spare_gpu_slots_;
  std::unique_ptr<devices::StorageDevice> local_nvme_;
  std::unique_ptr<devices::StorageDevice> falcon_nvme_;
  std::unique_ptr<devices::StorageDevice> boot_ssd_;
  falcon::SlotId falcon_nvme_slot_{};
  std::unique_ptr<falcon::FalconChassis> chassis_;
  std::unique_ptr<falcon::Bmc> bmc_;
  std::unique_ptr<falcon::Mcs> mcs_;
  std::unique_ptr<devices::HostCpu> second_cpu_;
  SecondHost second_host_;
};

}  // namespace composim::core
