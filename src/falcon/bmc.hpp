// composim: baseboard management controller (OpenBMC stand-in, paper §II-B).
//
// Provides what the Falcon web interface exposes: system information,
// drawer temperature and fan sensors, the resource list, per-slot and
// per-drawer throughput, PCIe link health with accumulated error counts,
// and an exportable event log with alert thresholds.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "falcon/chassis.hpp"
#include "sim/simulator.hpp"

namespace composim::falcon {

struct BmcEvent {
  SimTime time = 0.0;
  std::string severity;  // "info", "warning", "alert"
  std::string message;
};

struct TemperatureReading {
  double drawer_celsius[FalconChassis::kDrawers] = {0.0, 0.0};
  double chassis_celsius = 0.0;
  double fan_rpm = 0.0;
};

struct LinkHealthRow {
  SlotId slot;
  std::string device_name;
  bool up = false;
  Bytes bytes_ingress = 0;   // into the device
  Bytes bytes_egress = 0;    // out of the device
  std::uint64_t accumulated_errors = 0;
};

struct SystemInfo {
  std::string model = "Falcon 4016";
  std::string serial;
  std::string firmware = "OpenBMC 2.9 (composim)";
  SimTime uptime = 0.0;
};

class Bmc {
 public:
  Bmc(Simulator& sim, FalconChassis& chassis, std::string serial);

  // --- event log ---
  void logEvent(std::string severity, std::string message);
  const std::vector<BmcEvent>& eventLog() const { return st_.events; }
  /// Export events at or above a severity ("info" < "warning" < "alert").
  std::vector<BmcEvent> exportEvents(const std::string& minSeverity) const;
  void clearEventLog() { st_.events.clear(); }

  // --- sensors ---
  /// Register a 0..1 activity source for a drawer (e.g. a GPU's busy
  /// fraction); temperature follows aggregate activity. InvalidArgument
  /// for a drawer the chassis does not have.
  Status registerThermalSource(int drawer, std::function<double()> activity);
  TemperatureReading readTemperatures() const;
  /// Temperature above which an "alert" event is recorded by sampleSensors.
  void setAlertThreshold(double celsius) { alert_threshold_ = celsius; }
  /// Poll sensors once; records an alert event on threshold excursion.
  void sampleSensors();
  /// Schedule periodic sensor sampling every `interval` simulated seconds.
  /// InvalidArgument for a non-positive interval; FailedPrecondition when
  /// sampling is already running.
  Status startPeriodicSampling(SimTime interval);
  void stopPeriodicSampling() { sampling_ = false; }
  /// Stop AND cancel the pending sample event, so a draining simulation
  /// quiesces at the stop point instead of advancing the clock to the
  /// stale tick's no-op firing. Used at the warm-prefix pause boundary;
  /// plain stopPeriodicSampling() keeps the historical drain behavior for
  /// end-of-run teardown.
  void stopAndCancelSampling();

  // --- health / throughput ---
  /// One row per occupied slot, drawer-major.
  std::vector<LinkHealthRow> linkHealth() const;
  /// Fill `row` for the device in `slot` and return true; false (row
  /// untouched) for an empty slot. Reuses `row`'s string capacity, so a
  /// poller that keeps its row does not allocate.
  bool readSlot(SlotId slot, LinkHealthRow& row) const;
  /// Ingress + egress bytes of the device in `slot`, read from its two
  /// links; 0 for an empty slot.
  Bytes slotBytes(SlotId slot) const;
  Bytes drawerThroughputBytes(int drawer) const;
  SystemInfo systemInfo() const;

  // --- warm-prefix forking ---
  /// Event-log snapshot. Thermal sources and the alert threshold are
  /// reinstalled by the fork's own composition; only the accumulated
  /// events carry over. Both ends must have periodic sampling stopped
  /// (std::logic_error otherwise) — the fork restarts it on resume.
  struct State {
    std::vector<BmcEvent> events;
  };
  State state() const;
  void restoreState(const State& st);

 private:
  void periodicSample(SimTime interval);

  Simulator& sim_;
  FalconChassis& chassis_;
  std::string serial_;
  State st_;
  std::vector<std::vector<std::function<double()>>> thermal_;
  double alert_threshold_ = 75.0;
  bool sampling_ = false;
  EventId pending_sample_ = kInvalidEvent;
};

}  // namespace composim::falcon
