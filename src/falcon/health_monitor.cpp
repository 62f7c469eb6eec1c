#include "falcon/health_monitor.hpp"

#include "sim/profile.hpp"

namespace composim::falcon {

const char* toString(FaultEventType t) {
  switch (t) {
    case FaultEventType::DeviceLost: return "device-lost";
    case FaultEventType::DeviceRestored: return "device-restored";
    case FaultEventType::ErrorStorm: return "error-storm";
    case FaultEventType::HostPortLost: return "host-port-lost";
    case FaultEventType::HostPortRestored: return "host-port-restored";
  }
  return "?";
}

Status HealthMonitor::start(SimTime interval) {
  if (interval <= 0.0) {
    return Status::invalidArgument("poll interval must be > 0");
  }
  if (running_) return Status::failedPrecondition("monitor already running");
  running_ = true;
  // Prime the baseline immediately so pre-existing error counts are not
  // reported as a storm at the first periodic poll.
  poll();
  sim_.schedule(interval, [this, interval] { periodicPoll(interval); });
  return Status::success();
}

void HealthMonitor::periodicPoll(SimTime interval) {
  if (!running_) return;
  poll();
  sim_.schedule(interval, [this, interval] { periodicPoll(interval); });
}

void HealthMonitor::emit(FaultEvent ev) {
  ev.time = sim_.now();
  ++detections_;
  if (ProfileSink* p = sim_.profiler()) {
    ProfileArgs args{{"name", ev.device_name}};
    if (ev.port >= 0) {
      args.push_back({"port", ev.port});
    } else {
      args.push_back({"drawer", ev.slot.drawer});
      args.push_back({"slot", ev.slot.index});
    }
    if (ev.error_delta > 0) args.push_back({"error_delta", ev.error_delta});
    p->instant(p->intern("health"),
               p->intern(std::string("detect:") + toString(ev.type)), args);
    p->setCounter(p->counterKey("detections", "count"),
                  static_cast<double>(detections_));
  }
  log_.push_back(ev);
}

void HealthMonitor::poll() {
  // Collect first, dispatch after: handlers may detach/attach slots, which
  // would invalidate the table being scanned.
  std::vector<FaultEvent> found;

  for (const LinkHealthRow& row : bmc_.linkHealth()) {
    const int key = row.slot.drawer * FalconChassis::kSlotsPerDrawer +
                    row.slot.index;
    auto [it, fresh] = slot_state_.try_emplace(
        key, SlotHealth{row.up, row.accumulated_errors});
    SlotHealth& prev = it->second;
    const DeviceType type = chassis_.slot(row.slot).type;
    if (!fresh) {
      if (prev.up && !row.up) {
        found.push_back({0.0, FaultEventType::DeviceLost, row.slot, -1,
                         row.device_name, type});
      } else if (!prev.up && row.up) {
        found.push_back({0.0, FaultEventType::DeviceRestored, row.slot, -1,
                         row.device_name, type});
      }
      const std::uint64_t delta = row.accumulated_errors - prev.errors;
      if (delta >= storm_threshold_) {
        found.push_back({0.0, FaultEventType::ErrorStorm, row.slot, -1,
                         row.device_name, type, delta});
      }
    } else if (!row.up) {
      // First sighting of a slot that is already dead.
      found.push_back({0.0, FaultEventType::DeviceLost, row.slot, -1,
                       row.device_name, type});
    }
    prev = {row.up, row.accumulated_errors};
  }

  const auto& topo = chassis_.topology();
  for (int p = 0; p < FalconChassis::kHostPorts; ++p) {
    const HostPortInfo& port = chassis_.hostPort(p);
    if (!port.connected) {
      port_state_.erase(p);
      continue;
    }
    const bool up = topo.link(port.link_in).up && topo.link(port.link_out).up;
    auto [it, fresh] = port_state_.try_emplace(p, up);
    if (!fresh) {
      if (it->second && !up) {
        found.push_back({0.0, FaultEventType::HostPortLost, SlotId{}, p,
                         port.host_name});
      } else if (!it->second && up) {
        found.push_back({0.0, FaultEventType::HostPortRestored, SlotId{}, p,
                         port.host_name});
      }
    } else if (!up) {
      found.push_back({0.0, FaultEventType::HostPortLost, SlotId{}, p,
                       port.host_name});
    }
    it->second = up;
  }

  for (FaultEvent& ev : found) {
    emit(ev);
    for (const Handler& h : handlers_) h(log_.back());
  }
}

}  // namespace composim::falcon
