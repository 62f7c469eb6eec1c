// composim: MTTR-aware recovery orchestrator (paper §III-B.3 made live).
//
// The composable test bed's pitch is that a failed GPU, NVMe, or host link
// is a management-plane event, not a maintenance window: detach the dead
// slot, attach a spare, resume from checkpoint — no cabling, no reboot.
// RecoveryOrchestrator is the policy engine that drives that loop. It
// subscribes to falcon::HealthMonitor fault events and runs a per-incident
// state machine:
//
//   Detected ──► Quarantined ──► Attaching ──► Restoring ──► Recovered
//                    │              │(retries      ▲
//                    │              │ exhausted /  │
//                    │              ▼ no spare)    │
//                    └────────► Degrading ─────────┘ (shrunk gang)
//
//   HostPortLost ──► WaitingForLink ──► Restoring ──► Recovered
//
// Quarantine = Chassis::detach + removeDevice, so the AllocationPlanner
// can never hand the dead device back as a "spare". Attach retries use
// bounded exponential backoff because the management plane itself can fail
// transiently (Status code Retryable). When no spare exists the gang
// shrinks (graceful degradation) and the Trainer re-composes DDP over the
// survivors. Every path ends in Trainer::requestRestore: model state is
// re-read from storage over the fabric, so recovery cost is
// topology-dependent like everything else in the simulator.
//
// MTTR here is detection-to-resume: the health monitor's polling already
// models detection latency, and the bench reports injection-to-detection
// separately by joining the injector's history against the monitor log.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/composable_system.hpp"
#include "dl/trainer.hpp"
#include "falcon/allocation_planner.hpp"
#include "falcon/health_monitor.hpp"
#include "sim/random.hpp"

namespace composim::core {

struct RecoveryPolicy {
  int max_attach_retries = 6;
  SimTime attach_backoff_initial = 0.25;  // seconds; doubled per retry
  double attach_backoff_multiplier = 2.0;
  /// Ceiling on a single backoff interval; 0 disables the cap. Without a
  /// cap the doubling series can push MTTR past any SLO on a long retry
  /// chain even though each individual attach is cheap.
  SimTime attach_backoff_max = 0.0;
  /// Fractional jitter applied to each backoff interval: the wait is
  /// multiplied by a uniform draw from [1-j, 1+j]. Deterministic — drawn
  /// from the orchestrator's own seeded RNG stream, so replays are exact.
  double attach_backoff_jitter = 0.0;
  /// Total simulated time an incident may spend waiting in backoff before
  /// the attach is abandoned (0 = unlimited). A retry *budget* caps MTTR
  /// directly where max_attach_retries only caps the attempt count.
  SimTime attach_retry_budget = 0.0;
  /// Treat an ECC error storm on a gang GPU as a failure prediction and
  /// swap the device out before it falls off the bus.
  bool proactive_on_error_storm = true;
};

struct RecoveryIncident {
  falcon::FaultEvent fault;     // the detection that opened the incident
  SimTime detected_at = 0.0;
  SimTime recovered_at = -1.0;  // < 0 while open
  enum class Path {
    None,            // resolved without action (e.g. training already done)
    SpareAttach,     // quarantined, spare attached, restored
    Degraded,        // no spare: gang shrank, restored
    WaitForLink,     // host port: waited out the outage, restored
    StorageRetarget, // NVMe: spare attached, storage re-pointed, restored
  } path = Path::None;
  int attach_retries = 0;
  /// Cumulative simulated time spent waiting in attach backoff.
  SimTime backoff_waited = 0.0;
  /// Slot the replacement device was attached to (drawer < 0 if none):
  /// lets oracles assert the spare is never a quarantined slot.
  falcon::SlotId spare_slot{-1, -1};
  /// True when the incident ended without restoring service (retry budget
  /// exhausted, gang exhausted). Abandoned incidents are excluded from
  /// MTTR so the distribution only prices successful recoveries.
  bool abandoned = false;
  bool resolved() const { return recovered_at >= 0.0; }
  SimTime mttr() const { return recovered_at - detected_at; }
};

const char* toString(RecoveryIncident::Path p);

/// Where the recovery state machine ended up once the run is over.
enum class RecoveryTerminalState {
  Idle,           // no incidents ever opened
  Recovered,      // every incident resolved, full gang intact
  Degraded,       // resolved, but the gang shrank (or service was lost soft)
  Unrecoverable,  // recovery gave up and aborted the run
  InFlight,       // an incident was still open when the run ended
};

const char* toString(RecoveryTerminalState s);

class RecoveryOrchestrator {
 public:
  RecoveryOrchestrator(ComposableSystem& system, falcon::HealthMonitor& monitor,
                       dl::Trainer& trainer, RecoveryPolicy policy = {},
                       std::uint64_t jitter_seed = 0);

  RecoveryOrchestrator(const RecoveryOrchestrator&) = delete;
  RecoveryOrchestrator& operator=(const RecoveryOrchestrator&) = delete;

  const std::vector<RecoveryIncident>& incidents() const { return incidents_; }
  std::uint64_t reattachRetries() const { return reattach_retries_; }
  int degradations() const { return degradations_; }
  std::size_t gangSize() const { return gang_.size(); }
  /// Mean detection-to-resume time over resolved incidents (0 if none).
  SimTime meanMttr() const;
  /// Slots this orchestrator quarantined, in quarantine order.
  const std::vector<falcon::SlotId>& quarantinedSlots() const {
    return quarantined_;
  }
  bool slotQuarantined(falcon::SlotId slot) const;
  /// Classify where the state machine ended up; meaningful once the
  /// experiment has finished (during the run open incidents => InFlight).
  RecoveryTerminalState terminalState() const;
  /// The measurement is over (trainer finished, monitor stopping). An
  /// outage still in effect can never be observed recovering after this
  /// point, so WaitForLink incidents still waiting for their port are
  /// closed as abandoned: the outage outlived the run and no recovery was
  /// performed. Incidents mid-attach are left to their own (finite) event
  /// chains, which the simulation drains to a normal resolution.
  void noteRunEnded();

 private:
  void onFault(const falcon::FaultEvent& ev);
  bool inGang(const devices::Gpu* gpu) const;
  /// True while an unresolved incident already covers this slot (one
  /// physical fault may be detected via several signals in one poll).
  bool slotHasOpenIncident(falcon::SlotId slot) const;
  /// Quarantine the slot and either swap in a spare or degrade.
  void handleGpuLoss(std::size_t inc, devices::Gpu* failed,
                     falcon::SlotId slot);
  void handleNvmeLoss(std::size_t inc, falcon::SlotId slot);
  void quarantine(falcon::SlotId slot);
  /// Attach `slot` to `port` with bounded exponential backoff; `onDone`
  /// runs with true on success, false when retries are exhausted or the
  /// failure is not retryable.
  void attachWithRetry(std::size_t inc, falcon::SlotId slot, int port,
                       SimTime backoff, std::function<void(bool)> onDone);
  void degrade(std::size_t inc, devices::Gpu* failed);
  /// Restore training on the current gang; closes every open incident at
  /// the moment the first post-restore iteration begins.
  void resumeTraining();
  void closeOpenIncidents();
  /// Next backoff interval: capped, then jittered from the seeded stream.
  SimTime jitteredBackoff(SimTime backoff);
  void instant(const char* name, const ProfileArgs& args = {});

  ComposableSystem& system_;
  falcon::HealthMonitor& monitor_;
  dl::Trainer& trainer_;
  RecoveryPolicy policy_;
  Rng rng_;  // jitter stream; deterministic per (seed, draw order)
  std::vector<devices::Gpu*> gang_;
  std::vector<RecoveryIncident> incidents_;
  std::vector<falcon::SlotId> quarantined_;
  std::uint64_t reattach_retries_ = 0;
  int degradations_ = 0;
  bool aborted_run_ = false;
};

}  // namespace composim::core
