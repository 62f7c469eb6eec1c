#include "falcon/bmc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace composim::falcon {

namespace {

int severityRank(const std::string& s) {
  if (s == "alert") return 2;
  if (s == "warning") return 1;
  return 0;
}

}  // namespace

Bmc::Bmc(Simulator& sim, FalconChassis& chassis, std::string serial)
    : sim_(sim), chassis_(chassis), serial_(std::move(serial)),
      thermal_(FalconChassis::kDrawers) {
  chassis_.setBmc(this);
}

void Bmc::logEvent(std::string severity, std::string message) {
  st_.events.push_back(
      BmcEvent{sim_.now(), std::move(severity), std::move(message)});
}

std::vector<BmcEvent> Bmc::exportEvents(const std::string& minSeverity) const {
  const int min = severityRank(minSeverity);
  std::vector<BmcEvent> out;
  for (const auto& e : st_.events) {
    if (severityRank(e.severity) >= min) out.push_back(e);
  }
  return out;
}

Status Bmc::registerThermalSource(int drawer, std::function<double()> activity) {
  if (drawer < 0 || drawer >= FalconChassis::kDrawers) {
    return Status::invalidArgument("no drawer " + std::to_string(drawer));
  }
  thermal_[static_cast<std::size_t>(drawer)].push_back(std::move(activity));
  return Status::success();
}

TemperatureReading Bmc::readTemperatures() const {
  TemperatureReading r;
  constexpr double kAmbient = 24.0;
  constexpr double kPerDrawerSwing = 34.0;  // fully busy drawer runs hot
  double hottest = kAmbient;
  for (int d = 0; d < FalconChassis::kDrawers; ++d) {
    const auto& sources = thermal_[static_cast<std::size_t>(d)];
    double activity = 0.0;
    for (const auto& fn : sources) activity += std::clamp(fn(), 0.0, 1.0);
    if (!sources.empty()) activity /= static_cast<double>(sources.size());
    r.drawer_celsius[d] = kAmbient + kPerDrawerSwing * activity;
    hottest = std::max(hottest, r.drawer_celsius[d]);
  }
  r.chassis_celsius = 0.5 * (r.drawer_celsius[0] + r.drawer_celsius[1]);
  // Fan curve: idle 3000 rpm, ramps linearly to 11000 at 80C.
  r.fan_rpm = 3000.0 + std::clamp((hottest - kAmbient) / (80.0 - kAmbient), 0.0, 1.0) * 8000.0;
  return r;
}

void Bmc::sampleSensors() {
  const TemperatureReading r = readTemperatures();
  for (int d = 0; d < FalconChassis::kDrawers; ++d) {
    if (r.drawer_celsius[d] > alert_threshold_) {
      logEvent("alert", "drawer " + std::to_string(d) + " temperature " +
                            std::to_string(r.drawer_celsius[d]) +
                            "C exceeds threshold");
    }
  }
}

Status Bmc::startPeriodicSampling(SimTime interval) {
  if (interval <= 0.0) {
    return Status::invalidArgument("sampling interval must be positive");
  }
  if (sampling_) {
    return Status::failedPrecondition("periodic sampling already running");
  }
  sampling_ = true;
  periodicSample(interval);
  return Status::success();
}

void Bmc::periodicSample(SimTime interval) {
  if (!sampling_) return;
  pending_sample_ = sim_.schedule(interval, [this, interval] {
    pending_sample_ = kInvalidEvent;
    if (!sampling_) return;
    sampleSensors();
    periodicSample(interval);
  });
}

void Bmc::stopAndCancelSampling() {
  sampling_ = false;
  if (pending_sample_ != kInvalidEvent) {
    sim_.cancel(pending_sample_);
    pending_sample_ = kInvalidEvent;
  }
}

Bmc::State Bmc::state() const {
  if (sampling_) {
    throw std::logic_error("Bmc::state: stop periodic sampling first");
  }
  return st_;
}

void Bmc::restoreState(const State& st) {
  if (sampling_) {
    throw std::logic_error("Bmc::restoreState: stop periodic sampling first");
  }
  st_ = st;
}

std::vector<LinkHealthRow> Bmc::linkHealth() const {
  std::vector<LinkHealthRow> rows;
  LinkHealthRow row;
  for (int d = 0; d < FalconChassis::kDrawers; ++d) {
    for (int i = 0; i < FalconChassis::kSlotsPerDrawer; ++i) {
      if (readSlot(SlotId{d, i}, row)) rows.push_back(row);
    }
  }
  return rows;
}

bool Bmc::readSlot(SlotId slot, LinkHealthRow& row) const {
  const auto& info = chassis_.slot(slot);
  if (!info.occupied) return false;
  const auto& topo = const_cast<FalconChassis&>(chassis_).topology();
  const auto& up = topo.link(info.link_up);      // device -> switch
  const auto& down = topo.link(info.link_down);  // switch -> device
  row.slot = slot;
  row.device_name = info.device_name;
  row.up = up.up && down.up;
  row.bytes_egress = up.counters.bytes;
  row.bytes_ingress = down.counters.bytes;
  row.accumulated_errors = up.counters.errors + down.counters.errors;
  return true;
}

Bytes Bmc::slotBytes(SlotId slot) const {
  const auto& info = chassis_.slot(slot);
  if (!info.occupied) return 0;
  const auto& topo = const_cast<FalconChassis&>(chassis_).topology();
  return topo.link(info.link_down).counters.bytes + topo.link(info.link_up).counters.bytes;
}

Bytes Bmc::drawerThroughputBytes(int drawer) const {
  Bytes total = 0;
  for (const auto& row : linkHealth()) {
    if (row.slot.drawer == drawer) total += row.bytes_ingress + row.bytes_egress;
  }
  return total;
}

SystemInfo Bmc::systemInfo() const {
  SystemInfo info;
  info.serial = serial_;
  info.uptime = sim_.now();
  return info;
}

}  // namespace composim::falcon
