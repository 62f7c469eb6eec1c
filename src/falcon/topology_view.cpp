#include "falcon/topology_view.hpp"

#include <cstdio>

#include "telemetry/report.hpp"

namespace composim::falcon {

std::string renderListView(const FalconChassis& chassis) {
  telemetry::Table t({"Slot", "Type", "Device", "Link speed", "Port", "Host"});
  for (const auto& row : chassis.resourceList()) {
    t.addRow({"drawer" + std::to_string(row.slot.drawer) + "/slot" +
                  std::to_string(row.slot.index),
              toString(row.type), row.device_name, row.link_speed,
              row.assigned_port >= 0
                  ? chassis.hostPort(row.assigned_port).label
                  : "-",
              row.host_name.empty() ? "(unassigned)" : row.host_name});
  }
  return t.render();
}

std::string renderTopologyView(const FalconChassis& chassis) {
  std::string out;
  out += chassis.name() + " (Falcon 4016)\n";
  for (int d = 0; d < FalconChassis::kDrawers; ++d) {
    out += "+-- drawer " + std::to_string(d) + " [" +
           toString(chassis.drawerMode(d)) + " mode]\n";
    // Host ports wired to this drawer.
    for (int p = 0; p < FalconChassis::kHostPorts; ++p) {
      const auto& port = chassis.hostPort(p);
      if (port.drawer != d) continue;
      out += "|   port " + port.label + " <== ";
      out += port.connected ? ("host '" + port.host_name + "'") : "(no host)";
      out += '\n';
    }
    out += "|   PCIe switch\n";
    for (int s = 0; s < FalconChassis::kSlotsPerDrawer; ++s) {
      const auto& info = chassis.slot({d, s});
      out += "|   +-- slot " + std::to_string(s) + ": ";
      if (!info.occupied) {
        out += "(empty)\n";
        continue;
      }
      out += std::string(toString(info.type)) + " '" + info.device_name + "'";
      if (info.assigned_port >= 0) {
        out += " -> " + chassis.hostPort(info.assigned_port).label;
      } else {
        out += " (detached)";
      }
      out += '\n';
    }
  }
  return out;
}

std::string renderPortTraffic(const FalconChassis& chassis,
                              const fabric::Topology& topo) {
  telemetry::Table t({"Port / Slot", "Ingress", "Egress", "Errors", "Status"});
  for (int p = 0; p < FalconChassis::kHostPorts; ++p) {
    const auto& port = chassis.hostPort(p);
    if (!port.connected) continue;
    const auto& in = topo.link(port.link_in);    // host -> drawer
    const auto& out = topo.link(port.link_out);  // drawer -> host
    t.addRow({"port " + port.label, formatBytes(in.counters.bytes),
              formatBytes(out.counters.bytes),
              std::to_string(in.counters.errors + out.counters.errors),
              (in.up && out.up) ? "up" : "DOWN"});
  }
  for (int d = 0; d < FalconChassis::kDrawers; ++d) {
    for (int s = 0; s < FalconChassis::kSlotsPerDrawer; ++s) {
      const auto& info = chassis.slot({d, s});
      if (!info.occupied) continue;
      const auto& up = topo.link(info.link_up);      // device -> switch
      const auto& down = topo.link(info.link_down);  // switch -> device
      std::string label = "d";
      label += std::to_string(d);
      label += "/s";
      label += std::to_string(s);
      label += ' ';
      label += info.device_name;
      t.addRow({std::move(label),
                formatBytes(down.counters.bytes), formatBytes(up.counters.bytes),
                std::to_string(up.counters.errors + down.counters.errors),
                (up.up && down.up) ? "up" : "DOWN"});
    }
  }
  return t.render();
}

}  // namespace composim::falcon
