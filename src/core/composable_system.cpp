#include "core/composable_system.hpp"

#include <stdexcept>

#include "fabric/link_catalog.hpp"
#include "fabric/nvlink_mesh.hpp"

namespace composim::core {

const char* toString(SystemConfig c) {
  switch (c) {
    case SystemConfig::LocalGpus: return "localGPUs";
    case SystemConfig::HybridGpus: return "hybridGPUs";
    case SystemConfig::FalconGpus: return "falconGPUs";
    case SystemConfig::LocalNvme: return "localNVMe";
    case SystemConfig::FalconNvme: return "falconNVMe";
    case SystemConfig::AllGpus16: return "allGPUs16";
  }
  return "?";
}

std::vector<SystemConfig> allConfigs() {
  return {SystemConfig::LocalGpus, SystemConfig::HybridGpus,
          SystemConfig::FalconGpus, SystemConfig::LocalNvme,
          SystemConfig::FalconNvme};
}

std::vector<SystemConfig> gpuConfigs() {
  return {SystemConfig::LocalGpus, SystemConfig::HybridGpus,
          SystemConfig::FalconGpus};
}

std::vector<SystemConfig> storageConfigs() {
  return {SystemConfig::LocalGpus, SystemConfig::LocalNvme,
          SystemConfig::FalconNvme};
}

std::size_t trainingGpuCount(SystemConfig c) {
  return c == SystemConfig::AllGpus16 ? 16 : 8;
}

ComposableSystem::ComposableSystem(SystemConfig config) : config_(config) {
  net_ = std::make_unique<fabric::FlowNetwork>(sim_, topo_);
  buildHost();
  buildFalcon();
  applyConfig();
}

void ComposableSystem::buildHost() {
  cpu_ = std::make_unique<devices::HostCpu>(sim_, devices::specs::xeon_gold_6148());

  host_root_ = topo_.addNode("host.root", fabric::NodeKind::CpuRootComplex);
  host_memory_ = topo_.addNode("host.memory", fabric::NodeKind::HostMemory);
  {
    const auto bus = fabric::catalog::memoryBus();
    topo_.addDuplexLink(host_root_, host_memory_, bus.capacityPerDirection,
                        bus.latency, bus.kind);
  }

  // Two on-board PLX switches, four SXM2 sockets each (DGX-1-style board).
  const auto pcie3 = fabric::catalog::pcie3_x16();
  for (int p = 0; p < 2; ++p) {
    plx_[static_cast<std::size_t>(p)] =
        topo_.addNode("host.plx" + std::to_string(p), fabric::NodeKind::PcieSwitch);
    topo_.addDuplexLink(host_root_, plx_[static_cast<std::size_t>(p)],
                        pcie3.capacityPerDirection, pcie3.latency, pcie3.kind);
  }

  std::vector<fabric::NodeId> gpu_nodes;
  for (int i = 0; i < 8; ++i) {
    const std::string name = "gpu.local" + std::to_string(i);
    const fabric::NodeId node = topo_.addNode(name, fabric::NodeKind::Gpu);
    topo_.addDuplexLink(node, plx_[static_cast<std::size_t>(i / 4)],
                        pcie3.capacityPerDirection, pcie3.latency, pcie3.kind);
    gpu_nodes.push_back(node);
    local_gpus_.push_back(std::make_unique<devices::Gpu>(
        sim_, node, devices::specs::v100_sxm2(), name));
  }
  fabric::buildHybridCubeMesh(topo_, gpu_nodes);

  // Host-attached NVMe and the boot SSD, both behind the root complex.
  {
    const fabric::NodeId n = topo_.addNode("nvme.local", fabric::NodeKind::Storage);
    topo_.addDuplexLink(n, host_root_, pcie3.capacityPerDirection, pcie3.latency,
                        pcie3.kind);
    local_nvme_ = std::make_unique<devices::StorageDevice>(
        *net_, n, devices::specs::intel_nvme_4tb(), "nvme.local");
  }
  {
    const fabric::NodeId n = topo_.addNode("ssd.boot", fabric::NodeKind::Storage);
    topo_.addDuplexLink(n, host_root_, units::GBps(0.6), units::microseconds(2.0),
                        fabric::LinkKind::PCIe3);
    boot_ssd_ = std::make_unique<devices::StorageDevice>(
        *net_, n, devices::specs::sata_boot_ssd(), "ssd.boot");
  }
}

void ComposableSystem::buildFalcon() {
  chassis_ = std::make_unique<falcon::FalconChassis>(sim_, topo_, "falcon0");
  bmc_ = std::make_unique<falcon::Bmc>(sim_, *chassis_, "FAL-4016-0001");
  mcs_ = std::make_unique<falcon::Mcs>(*chassis_);
  mcs_->addUser("admin", falcon::Role::Administrator);

  // Fig 6: the host reaches both drawers (ports H1 and H3).
  if (auto r = chassis_->connectHost(0, host_root_, "host"); !r) {
    throw std::runtime_error("connectHost H1: " + r.detail);
  }
  if (auto r = chassis_->connectHost(2, host_root_, "host"); !r) {
    throw std::runtime_error("connectHost H3: " + r.detail);
  }

  // Four V100-PCIE GPUs per drawer (slots 0-3).
  for (int d = 0; d < 2; ++d) {
    for (int s = 0; s < 4; ++s) {
      const std::string name =
          "gpu.falcon.d" + std::to_string(d) + "s" + std::to_string(s);
      const fabric::NodeId node = topo_.addNode(name, fabric::NodeKind::Gpu);
      const falcon::SlotId slot{d, s};
      if (auto r = chassis_->installDevice(slot, falcon::DeviceType::Gpu, name, node);
          !r) {
        throw std::runtime_error("installDevice: " + r.detail);
      }
      falcon_gpus_.push_back(std::make_unique<devices::Gpu>(
          sim_, node, devices::specs::v100_pcie(), name));
      falcon_gpu_slots_.push_back(slot);
    }
  }

  // NVMe in drawer 2 (index 1), slot 4 — per the Fig 6 topology.
  {
    const fabric::NodeId n = topo_.addNode("nvme.falcon", fabric::NodeKind::Storage);
    falcon_nvme_slot_ = falcon::SlotId{1, 4};
    if (auto r = chassis_->installDevice(falcon_nvme_slot_, falcon::DeviceType::Nvme,
                                         "nvme.falcon", n);
        !r) {
      throw std::runtime_error("installDevice nvme: " + r.detail);
    }
    falcon_nvme_ = std::make_unique<devices::StorageDevice>(
        *net_, n, devices::specs::intel_nvme_4tb(), "nvme.falcon");
  }

  // Thermal model inputs for the BMC.
  for (std::size_t i = 0; i < falcon_gpus_.size(); ++i) {
    devices::Gpu* gpu = falcon_gpus_[i].get();
    const int drawer = falcon_gpu_slots_[i].drawer;
    Simulator* sim = &sim_;
    // Busy fraction over the trailing second, evaluated lazily.
    auto last = std::make_shared<std::pair<SimTime, SimTime>>(0.0, 0.0);
    bmc_->registerThermalSource(drawer, [gpu, sim, last]() {
      const SimTime now = sim->now();
      const SimTime busy = gpu->busyTime();
      double frac = 0.0;
      if (now > last->first) frac = (busy - last->second) / (now - last->first);
      *last = {now, busy};
      return frac;
    });
  }
}

void ComposableSystem::applyConfig() {
  // Attach falcon devices to the host according to the Table III label.
  auto attachGpu = [this](std::size_t idx) {
    const falcon::SlotId slot = falcon_gpu_slots_.at(idx);
    const int port = (slot.drawer == 0) ? 0 : 2;
    if (auto r = chassis_->attach(slot, port); !r) {
      throw std::runtime_error("attach gpu: " + r.detail);
    }
  };
  switch (config_) {
    case SystemConfig::HybridGpus:
      for (std::size_t i = 0; i < 4; ++i) attachGpu(i);  // drawer 0
      break;
    case SystemConfig::FalconGpus:
    case SystemConfig::AllGpus16:
      for (std::size_t i = 0; i < falcon_gpus_.size(); ++i) attachGpu(i);
      break;
    case SystemConfig::FalconNvme:
      if (auto r = chassis_->attach(falcon_nvme_slot_, 2); !r) {
        throw std::runtime_error("attach nvme: " + r.detail);
      }
      break;
    case SystemConfig::LocalGpus:
    case SystemConfig::LocalNvme:
      break;  // nothing composed from the Falcon for these
  }
}

std::vector<devices::Gpu*> ComposableSystem::trainingGpus() {
  std::vector<devices::Gpu*> out;
  switch (config_) {
    case SystemConfig::LocalGpus:
    case SystemConfig::LocalNvme:
    case SystemConfig::FalconNvme:
      for (auto& g : local_gpus_) out.push_back(g.get());
      break;
    case SystemConfig::HybridGpus:
      for (std::size_t i = 0; i < 4; ++i) out.push_back(local_gpus_[i].get());
      for (std::size_t i = 0; i < 4; ++i) out.push_back(falcon_gpus_[i].get());
      break;
    case SystemConfig::FalconGpus:
      for (auto& g : falcon_gpus_) out.push_back(g.get());
      break;
    case SystemConfig::AllGpus16:
      for (auto& g : local_gpus_) out.push_back(g.get());
      for (auto& g : falcon_gpus_) out.push_back(g.get());
      break;
  }
  return out;
}

devices::Gpu* ComposableSystem::installSpareGpu(falcon::SlotId slot) {
  const std::string name = "gpu.spare.d" + std::to_string(slot.drawer) + "s" +
                           std::to_string(slot.index);
  const fabric::NodeId node = topo_.addNode(name, fabric::NodeKind::Gpu);
  if (auto r = chassis_->installDevice(slot, falcon::DeviceType::Gpu, name, node);
      !r) {
    throw std::runtime_error("installSpareGpu: " + r.detail);
  }
  spare_gpus_.push_back(
      std::make_unique<devices::Gpu>(sim_, node, devices::specs::v100_pcie(), name));
  spare_gpu_slots_.push_back(slot);
  return spare_gpus_.back().get();
}

std::optional<falcon::SlotId> ComposableSystem::slotOfGpu(
    const devices::Gpu* gpu) const {
  for (std::size_t i = 0; i < falcon_gpus_.size(); ++i) {
    if (falcon_gpus_[i].get() == gpu) return falcon_gpu_slots_[i];
  }
  for (std::size_t i = 0; i < spare_gpus_.size(); ++i) {
    if (spare_gpus_[i].get() == gpu) return spare_gpu_slots_[i];
  }
  return std::nullopt;
}

devices::Gpu* ComposableSystem::gpuInSlot(falcon::SlotId slot) {
  for (std::size_t i = 0; i < falcon_gpus_.size(); ++i) {
    if (falcon_gpu_slots_[i] == slot) return falcon_gpus_[i].get();
  }
  for (std::size_t i = 0; i < spare_gpus_.size(); ++i) {
    if (spare_gpu_slots_[i] == slot) return spare_gpus_[i].get();
  }
  return nullptr;
}

ComposableSystem::SecondHost ComposableSystem::attachSecondHost() {
  if (second_host_.root != fabric::kInvalidNode) return second_host_;
  second_host_.root = topo_.addNode("host2.root", fabric::NodeKind::CpuRootComplex);
  second_host_.memory = topo_.addNode("host2.memory", fabric::NodeKind::HostMemory);
  const auto bus = fabric::catalog::memoryBus();
  topo_.addDuplexLink(second_host_.root, second_host_.memory,
                      bus.capacityPerDirection, bus.latency, bus.kind);
  second_cpu_ = std::make_unique<devices::HostCpu>(sim_, devices::specs::xeon_gold_6148());
  second_host_.cpu = second_cpu_.get();
  // Ports H2 (drawer 0) and H4 (drawer 1) are free in every built-in
  // configuration; the second tenant takes both.
  if (auto r = chassis_->connectHost(1, second_host_.root, "host2"); !r) {
    throw std::runtime_error("attachSecondHost H2: " + r.detail);
  }
  if (auto r = chassis_->connectHost(3, second_host_.root, "host2"); !r) {
    throw std::runtime_error("attachSecondHost H4: " + r.detail);
  }
  return second_host_;
}

devices::StorageDevice& ComposableSystem::trainingStorage() {
  switch (config_) {
    case SystemConfig::LocalNvme:
    case SystemConfig::AllGpus16: return *local_nvme_;
    case SystemConfig::FalconNvme: return *falcon_nvme_;
    case SystemConfig::LocalGpus:
    case SystemConfig::HybridGpus:
    case SystemConfig::FalconGpus: return *boot_ssd_;
  }
  return *boot_ssd_;
}

Bytes ComposableSystem::falconGpuPortBytes() const {
  Bytes total = 0;
  for (const auto& slot : falcon_gpu_slots_) {
    const auto& info = chassis_->slot(slot);
    if (!info.occupied) continue;
    total += topo_.link(info.link_up).counters.bytes;
    total += topo_.link(info.link_down).counters.bytes;
  }
  return total;
}

double ComposableSystem::drawerActivity(int drawer) const {
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < falcon_gpus_.size(); ++i) {
    if (falcon_gpu_slots_[i].drawer != drawer) continue;
    sum += falcon_gpus_[i]->busy() ? 1.0 : 0.0;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace composim::core
