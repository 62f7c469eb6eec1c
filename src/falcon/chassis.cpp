#include "falcon/chassis.hpp"

#include <algorithm>
#include <set>

#include "falcon/bmc.hpp"

namespace composim::falcon {

const char* toString(DeviceType t) {
  switch (t) {
    case DeviceType::Gpu: return "GPU";
    case DeviceType::Nvme: return "NVMe SSD";
    case DeviceType::Nic: return "NIC";
    case DeviceType::Custom: return "Custom";
  }
  return "?";
}

const char* toString(DrawerMode m) {
  switch (m) {
    case DrawerMode::Standard: return "Standard";
    case DrawerMode::Advanced: return "Advanced";
  }
  return "?";
}

FalconChassis::FalconChassis(Simulator& sim, fabric::Topology& topo,
                             std::string name)
    : sim_(sim), topo_(topo), name_(std::move(name)) {
  for (int d = 0; d < kDrawers; ++d) {
    for (int half = 0; half < 2; ++half) {
      drawer_chips_[static_cast<std::size_t>(d)][static_cast<std::size_t>(half)] =
          topo_.addNode(name_ + ".drawer" + std::to_string(d) + ".chip" +
                            std::to_string(half),
                        fabric::NodeKind::PcieSwitch);
    }
    // Inter-chip fabric link between the two halves of the drawer.
    topo_.addDuplexLink(drawer_chips_[static_cast<std::size_t>(d)][0],
                        drawer_chips_[static_cast<std::size_t>(d)][1],
                        units::GBps(12.25), units::microseconds(0.30),
                        fabric::LinkKind::Internal);
    mode_[static_cast<std::size_t>(d)] = DrawerMode::Standard;
  }
  for (int p = 0; p < kHostPorts; ++p) {
    auto& port = ports_[static_cast<std::size_t>(p)];
    // Built in a fresh string and moved in: assigning into port.label
    // directly trips a GCC 12 -Wrestrict false positive at -O3.
    std::string label = "H";
    label += std::to_string(p + 1);
    port.label = std::move(label);
    port.drawer = p / 2;  // H1,H2 -> drawer 0; H3,H4 -> drawer 1
  }
}

fabric::NodeId FalconChassis::drawerSwitch(int drawer, int half) const {
  return drawer_chips_.at(static_cast<std::size_t>(drawer))
      .at(static_cast<std::size_t>(half));
}

void FalconChassis::logEvent(const std::string& severity,
                             const std::string& message) {
  if (bmc_ != nullptr) bmc_->logEvent(severity, message);
}

OpResult FalconChassis::validateSlotId(SlotId s) const {
  if (s.drawer < 0 || s.drawer >= kDrawers || s.index < 0 ||
      s.index >= kSlotsPerDrawer) {
    return OpResult::invalidArgument("invalid slot id (drawer " +
                             std::to_string(s.drawer) + ", index " +
                             std::to_string(s.index) + ")");
  }
  return OpResult::success();
}

OpResult FalconChassis::connectHost(int portIdx, fabric::NodeId hostRoot,
                                    std::string hostName) {
  if (portIdx < 0 || portIdx >= kHostPorts) {
    return OpResult::invalidArgument("invalid host port");
  }
  auto& port = ports_[static_cast<std::size_t>(portIdx)];
  if (port.connected) {
    return OpResult::failure("port " + port.label + " already connected to " +
                             port.host_name);
  }
  const auto spec = fabric::catalog::hostAdapter();
  // H1/H3 land on chip 0 of their drawer, H2/H4 on chip 1.
  auto [in, out] = topo_.addDuplexLink(hostRoot,
                                       drawerSwitch(port.drawer, portIdx % 2),
                                       spec.capacityPerDirection, spec.latency,
                                       spec.kind);
  port.connected = true;
  port.host_name = std::move(hostName);
  port.host_node = hostRoot;
  port.link_in = in;
  port.link_out = out;
  logEvent("info", "host '" + port.host_name + "' connected to port " + port.label);
  return OpResult::success();
}

OpResult FalconChassis::disconnectHost(int portIdx) {
  if (portIdx < 0 || portIdx >= kHostPorts) {
    return OpResult::invalidArgument("invalid host port");
  }
  auto& port = ports_[static_cast<std::size_t>(portIdx)];
  if (!port.connected) return OpResult::failure("port not connected");
  if (!devicesAssignedTo(portIdx).empty()) {
    return OpResult::failure("port " + port.label +
                             " still has devices assigned; detach them first");
  }
  topo_.setLinkUp(port.link_in, false);
  topo_.setLinkUp(port.link_out, false);
  logEvent("info", "host '" + port.host_name + "' disconnected from port " + port.label);
  port.connected = false;
  port.host_name.clear();
  port.host_node = fabric::kInvalidNode;
  port.link_in = port.link_out = fabric::kInvalidLink;
  return OpResult::success();
}

const HostPortInfo& FalconChassis::hostPort(int port) const {
  return ports_.at(static_cast<std::size_t>(port));
}

OpResult FalconChassis::installDevice(SlotId s, DeviceType type,
                                      std::string deviceName,
                                      fabric::NodeId deviceNode) {
  if (auto r = validateSlotId(s); !r) return r;
  auto& info = slots_[static_cast<std::size_t>(s.drawer)][static_cast<std::size_t>(s.index)];
  if (info.occupied) {
    return OpResult::failure("slot already occupied by " + info.device_name);
  }
  const auto spec = fabric::catalog::pcie4_x16_slot();
  auto [up, down] = topo_.addDuplexLink(
      deviceNode, drawerSwitch(s.drawer, s.index / (kSlotsPerDrawer / 2)),
      spec.capacityPerDirection, spec.latency, spec.kind);
  info = SlotInfo{true, type, std::move(deviceName), deviceNode, up, down, -1};
  logEvent("info", std::string(toString(type)) + " '" + info.device_name +
                       "' installed in drawer " + std::to_string(s.drawer) +
                       " slot " + std::to_string(s.index));
  return OpResult::success();
}

OpResult FalconChassis::removeDevice(SlotId s) {
  if (auto r = validateSlotId(s); !r) return r;
  auto& info = slots_[static_cast<std::size_t>(s.drawer)][static_cast<std::size_t>(s.index)];
  if (!info.occupied) return OpResult::failure("slot is empty");
  if (info.assigned_port >= 0) {
    return OpResult::failure("device '" + info.device_name +
                             "' is attached to a host; detach it first");
  }
  topo_.setLinkUp(info.link_up, false);
  topo_.setLinkUp(info.link_down, false);
  logEvent("info", "device '" + info.device_name + "' removed from drawer " +
                       std::to_string(s.drawer) + " slot " + std::to_string(s.index));
  info = SlotInfo{};
  return OpResult::success();
}

const SlotInfo& FalconChassis::slot(SlotId s) const {
  return slots_.at(static_cast<std::size_t>(s.drawer)).at(static_cast<std::size_t>(s.index));
}

OpResult FalconChassis::setDrawerMode(int drawer, DrawerMode mode) {
  if (drawer < 0 || drawer >= kDrawers) return OpResult::invalidArgument("invalid drawer");
  // Downgrading to Standard requires the current assignment to satisfy the
  // Standard constraints; simplest safe rule: no assignments present.
  if (mode == DrawerMode::Standard &&
      mode_[static_cast<std::size_t>(drawer)] == DrawerMode::Advanced) {
    for (const auto& info : slots_[static_cast<std::size_t>(drawer)]) {
      if (info.occupied && info.assigned_port >= 0) {
        return OpResult::failure(
            "cannot switch drawer to Standard mode while devices are attached");
      }
    }
  }
  mode_[static_cast<std::size_t>(drawer)] = mode;
  logEvent("info", "drawer " + std::to_string(drawer) + " mode set to " +
                       toString(mode));
  return OpResult::success();
}

DrawerMode FalconChassis::drawerMode(int drawer) const {
  return mode_.at(static_cast<std::size_t>(drawer));
}

int FalconChassis::hostsUsingDrawer(int drawer) const {
  std::set<int> hosts;
  for (const auto& info : slots_.at(static_cast<std::size_t>(drawer))) {
    if (info.occupied && info.assigned_port >= 0) hosts.insert(info.assigned_port);
  }
  return static_cast<int>(hosts.size());
}

OpResult FalconChassis::checkAttachAllowed(SlotId s, int portIdx) const {
  const auto& port = ports_.at(static_cast<std::size_t>(portIdx));
  if (!port.connected) {
    return OpResult::failure("port " + port.label + " has no host connected");
  }
  if (port.drawer != s.drawer) {
    return OpResult::failure("port " + port.label + " is wired to drawer " +
                             std::to_string(port.drawer) + ", not drawer " +
                             std::to_string(s.drawer));
  }
  const DrawerMode mode = drawerMode(s.drawer);
  // Count distinct ports if this attach happened.
  std::set<int> hosts;
  for (const auto& info : slots_.at(static_cast<std::size_t>(s.drawer))) {
    if (info.occupied && info.assigned_port >= 0) hosts.insert(info.assigned_port);
  }
  hosts.insert(portIdx);
  const int limit = (mode == DrawerMode::Standard) ? kMaxHostsPerDrawerStandard
                                                   : kMaxHostsPerDrawerAdvanced;
  if (static_cast<int>(hosts.size()) > limit) {
    return OpResult::failure(std::string("drawer in ") + toString(mode) +
                             " mode supports at most " + std::to_string(limit) +
                             " hosts");
  }
  if (mode == DrawerMode::Standard && hosts.size() == 2) {
    // Two-host standard mode splits the drawer in fixed halves: the
    // lower-numbered port owns slots 0-3, the higher-numbered slots 4-7.
    const int lo = *hosts.begin();
    const int hi = *hosts.rbegin();
    const int expected = (s.index < kSlotsPerDrawer / 2) ? lo : hi;
    if (portIdx != expected) {
      return OpResult::failure(
          "Standard mode with two hosts assigns slots 0-3 to the lower port "
          "and slots 4-7 to the higher port");
    }
    // Existing assignments must also respect the halves.
    const auto& drawer = slots_.at(static_cast<std::size_t>(s.drawer));
    for (int i = 0; i < kSlotsPerDrawer; ++i) {
      const auto& info = drawer[static_cast<std::size_t>(i)];
      if (!info.occupied || info.assigned_port < 0) continue;
      const int exp = (i < kSlotsPerDrawer / 2) ? lo : hi;
      if (info.assigned_port != exp) {
        return OpResult::failure(
            "existing assignments violate Standard-mode half-split");
      }
    }
  }
  return OpResult::success();
}

void FalconChassis::setTransientAttachFailureRate(double rate,
                                                  std::uint64_t seed) {
  transient_attach_failure_rate_ = rate;
  attach_rng_.reseed(seed);
}

OpResult FalconChassis::attach(SlotId s, int portIdx) {
  if (auto r = validateSlotId(s); !r) return r;
  if (portIdx < 0 || portIdx >= kHostPorts) {
    return OpResult::invalidArgument("invalid host port");
  }
  auto& info = slots_[static_cast<std::size_t>(s.drawer)][static_cast<std::size_t>(s.index)];
  if (!info.occupied) return OpResult::failure("slot is empty");
  if (info.assigned_port == portIdx) return OpResult::success();
  if (info.assigned_port >= 0) {
    return OpResult::failure("device '" + info.device_name +
                             "' is already attached to port " +
                             ports_[static_cast<std::size_t>(info.assigned_port)].label);
  }
  if (auto r = checkAttachAllowed(s, portIdx); !r) return r;
  if (transient_attach_failure_rate_ > 0.0 &&
      attach_rng_.uniform() < transient_attach_failure_rate_) {
    logEvent("warning", "attach of '" + info.device_name +
                            "' timed out (transient); retry");
    return OpResult::retryable("management plane timed out; retry attach");
  }
  info.assigned_port = portIdx;
  logEvent("info", "device '" + info.device_name + "' attached to host '" +
                       ports_[static_cast<std::size_t>(portIdx)].host_name + "' (port " +
                       ports_[static_cast<std::size_t>(portIdx)].label + ")");
  return OpResult::success();
}

OpResult FalconChassis::detach(SlotId s) {
  if (auto r = validateSlotId(s); !r) return r;
  auto& info = slots_[static_cast<std::size_t>(s.drawer)][static_cast<std::size_t>(s.index)];
  if (!info.occupied) return OpResult::failure("slot is empty");
  if (info.assigned_port < 0) return OpResult::failure("device is not attached");
  const int old = info.assigned_port;
  info.assigned_port = -1;
  logEvent("info", "device '" + info.device_name + "' detached from port " +
                       ports_[static_cast<std::size_t>(old)].label);
  return OpResult::success();
}

std::vector<SlotId> FalconChassis::devicesAssignedTo(int port) const {
  std::vector<SlotId> out;
  for (int d = 0; d < kDrawers; ++d) {
    for (int i = 0; i < kSlotsPerDrawer; ++i) {
      const auto& info = slots_[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
      if (info.occupied && info.assigned_port == port) out.push_back({d, i});
    }
  }
  return out;
}

std::vector<FalconChassis::ResourceRow> FalconChassis::resourceList() const {
  std::vector<ResourceRow> rows;
  for (int d = 0; d < kDrawers; ++d) {
    for (int i = 0; i < kSlotsPerDrawer; ++i) {
      const auto& info = slots_[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)];
      if (!info.occupied) continue;
      ResourceRow row;
      row.slot = {d, i};
      row.type = info.type;
      row.device_name = info.device_name;
      row.link_speed = "PCI-e 4.0 x16";
      row.assigned_port = info.assigned_port;
      if (info.assigned_port >= 0) {
        row.host_name = ports_[static_cast<std::size_t>(info.assigned_port)].host_name;
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace composim::falcon
