#include "core/recovery_orchestrator.hpp"

#include <algorithm>

#include "sim/profile.hpp"

namespace composim::core {

const char* toString(RecoveryIncident::Path p) {
  switch (p) {
    case RecoveryIncident::Path::None: return "none";
    case RecoveryIncident::Path::SpareAttach: return "spare-attach";
    case RecoveryIncident::Path::Degraded: return "degraded";
    case RecoveryIncident::Path::WaitForLink: return "wait-for-link";
    case RecoveryIncident::Path::StorageRetarget: return "storage-retarget";
  }
  return "?";
}

const char* toString(RecoveryTerminalState s) {
  switch (s) {
    case RecoveryTerminalState::Idle: return "idle";
    case RecoveryTerminalState::Recovered: return "recovered";
    case RecoveryTerminalState::Degraded: return "degraded";
    case RecoveryTerminalState::Unrecoverable: return "unrecoverable";
    case RecoveryTerminalState::InFlight: return "in-flight";
  }
  return "?";
}

RecoveryOrchestrator::RecoveryOrchestrator(ComposableSystem& system,
                                           falcon::HealthMonitor& monitor,
                                           dl::Trainer& trainer,
                                           RecoveryPolicy policy,
                                           std::uint64_t jitter_seed)
    : system_(system), monitor_(monitor), trainer_(trainer), policy_(policy),
      rng_(jitter_seed), gang_(trainer.gpuGroup()) {
  monitor_.subscribe([this](const falcon::FaultEvent& ev) { onFault(ev); });
}

bool RecoveryOrchestrator::slotQuarantined(falcon::SlotId slot) const {
  for (const auto& q : quarantined_) {
    if (q.drawer == slot.drawer && q.index == slot.index) return true;
  }
  return false;
}

RecoveryTerminalState RecoveryOrchestrator::terminalState() const {
  if (aborted_run_) return RecoveryTerminalState::Unrecoverable;
  bool abandoned = false;
  for (const auto& inc : incidents_) {
    if (!inc.resolved()) return RecoveryTerminalState::InFlight;
    abandoned = abandoned || inc.abandoned;
  }
  if (incidents_.empty()) return RecoveryTerminalState::Idle;
  if (degradations_ > 0 || abandoned) return RecoveryTerminalState::Degraded;
  return RecoveryTerminalState::Recovered;
}

SimTime RecoveryOrchestrator::meanMttr() const {
  SimTime sum = 0.0;
  int n = 0;
  for (const auto& inc : incidents_) {
    if (inc.resolved() && !inc.abandoned) {
      sum += inc.mttr();
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

void RecoveryOrchestrator::instant(const char* name, const ProfileArgs& args) {
  if (ProfileSink* p = system_.sim().profiler()) {
    p->instant(p->intern("recovery"), p->intern(name), args);
  }
}

bool RecoveryOrchestrator::inGang(const devices::Gpu* gpu) const {
  return std::find(gang_.begin(), gang_.end(), gpu) != gang_.end();
}

bool RecoveryOrchestrator::slotHasOpenIncident(falcon::SlotId slot) const {
  for (const auto& inc : incidents_) {
    if (!inc.resolved() && inc.fault.slot.drawer == slot.drawer &&
        inc.fault.slot.index == slot.index) {
      return true;
    }
  }
  return false;
}

void RecoveryOrchestrator::onFault(const falcon::FaultEvent& ev) {
  if (trainer_.finished()) return;
  switch (ev.type) {
    case falcon::FaultEventType::DeviceLost:
    case falcon::FaultEventType::ErrorStorm: {
      if (ev.type == falcon::FaultEventType::ErrorStorm &&
          !policy_.proactive_on_error_storm) {
        return;
      }
      // One physical fault can surface through several signals in the
      // same poll (a falloff is both a link-down and an error storm);
      // recovery for the slot must only be driven once.
      if (slotHasOpenIncident(ev.slot)) return;
      if (ev.device_type == falcon::DeviceType::Gpu) {
        devices::Gpu* gpu = system_.gpuInSlot(ev.slot);
        if (gpu == nullptr || !inGang(gpu)) return;  // not our problem
        incidents_.push_back({ev, ev.time});
        handleGpuLoss(incidents_.size() - 1, gpu, ev.slot);
      } else if (ev.device_type == falcon::DeviceType::Nvme &&
                 ev.type == falcon::FaultEventType::DeviceLost) {
        incidents_.push_back({ev, ev.time});
        handleNvmeLoss(incidents_.size() - 1, ev.slot);
      }
      return;
    }
    case falcon::FaultEventType::HostPortLost: {
      incidents_.push_back({ev, ev.time});
      incidents_.back().path = RecoveryIncident::Path::WaitForLink;
      instant("host-port-wait", {{"port", ev.port}});
      return;
    }
    case falcon::FaultEventType::HostPortRestored: {
      // The outage killed in-flight H2D and gradient flows; anything the
      // gang computed meanwhile is unsynchronized. Rewind to checkpoint.
      for (const auto& inc : incidents_) {
        if (!inc.resolved() &&
            inc.path == RecoveryIncident::Path::WaitForLink &&
            inc.fault.port == ev.port) {
          resumeTraining();
          return;
        }
      }
      return;
    }
    case falcon::FaultEventType::DeviceRestored:
      return;  // quarantined devices never come back; spares attach silently
  }
}

void RecoveryOrchestrator::quarantine(falcon::SlotId slot) {
  auto& chassis = system_.chassis();
  if (chassis.slot(slot).assigned_port >= 0) chassis.detach(slot);
  // removeDevice frees the slot, so the planner can never offer the dead
  // device back as a spare.
  chassis.removeDevice(slot);
  quarantined_.push_back(slot);
  instant("quarantine",
          {{"drawer", slot.drawer}, {"slot", slot.index}});
}

void RecoveryOrchestrator::handleGpuLoss(std::size_t inc, devices::Gpu* failed,
                                         falcon::SlotId slot) {
  auto& chassis = system_.chassis();
  int port = chassis.slot(slot).assigned_port;
  if (port < 0) port = (slot.drawer == 0) ? 0 : 2;  // drawer's default host port
  quarantine(slot);

  const auto plan =
      falcon::planAllocation(chassis, {falcon::ResourceRequest{port, 1, 0}});
  if (!plan.feasible) {
    degrade(inc, failed);
    resumeTraining();
    return;
  }
  for (int drawer : plan.mode_changes_to_advanced) {
    chassis.setDrawerMode(drawer, falcon::DrawerMode::Advanced);
  }
  const falcon::SlotId spare_slot = plan.attaches.front().slot;
  attachWithRetry(inc, spare_slot, port, policy_.attach_backoff_initial,
                  [this, inc, failed, spare_slot](bool ok) {
                    devices::Gpu* spare =
                        ok ? system_.gpuInSlot(spare_slot) : nullptr;
                    if (spare == nullptr) {
                      degrade(inc, failed);
                      resumeTraining();
                      return;
                    }
                    std::replace(gang_.begin(), gang_.end(), failed, spare);
                    incidents_[inc].path = RecoveryIncident::Path::SpareAttach;
                    incidents_[inc].spare_slot = spare_slot;
                    instant("spare-attached",
                            {{"drawer", spare_slot.drawer},
                             {"slot", spare_slot.index},
                             {"retries", incidents_[inc].attach_retries}});
                    resumeTraining();
                  });
}

void RecoveryOrchestrator::handleNvmeLoss(std::size_t inc,
                                          falcon::SlotId slot) {
  auto& chassis = system_.chassis();
  int port = chassis.slot(slot).assigned_port;
  if (port < 0) port = (slot.drawer == 0) ? 0 : 2;
  quarantine(slot);

  const auto plan =
      falcon::planAllocation(chassis, {falcon::ResourceRequest{port, 0, 1}});
  if (!plan.feasible) {
    // No spare drive: nothing to re-point storage at. Close the incident
    // as abandoned (service was not restored); reads against the dead
    // node fail soft and the run limps on.
    incidents_[inc].abandoned = true;
    incidents_[inc].recovered_at = system_.sim().now();
    instant("nvme-unrecoverable", {{"drawer", slot.drawer}});
    return;
  }
  for (int drawer : plan.mode_changes_to_advanced) {
    chassis.setDrawerMode(drawer, falcon::DrawerMode::Advanced);
  }
  const falcon::SlotId spare_slot = plan.attaches.front().slot;
  attachWithRetry(inc, spare_slot, port, policy_.attach_backoff_initial,
                  [this, inc, spare_slot](bool ok) {
                    if (!ok) {
                      incidents_[inc].abandoned = true;
                      incidents_[inc].recovered_at = system_.sim().now();
                      instant("nvme-unrecoverable", {});
                      return;
                    }
                    const auto& info = system_.chassis().slot(spare_slot);
                    system_.falconNvme().retarget(info.device_node);
                    incidents_[inc].path =
                        RecoveryIncident::Path::StorageRetarget;
                    incidents_[inc].spare_slot = spare_slot;
                    instant("storage-retargeted",
                            {{"drawer", spare_slot.drawer},
                             {"slot", spare_slot.index}});
                    resumeTraining();
                  });
}

SimTime RecoveryOrchestrator::jitteredBackoff(SimTime backoff) {
  if (policy_.attach_backoff_max > 0.0) {
    backoff = std::min(backoff, policy_.attach_backoff_max);
  }
  const double j = policy_.attach_backoff_jitter;
  if (j > 0.0) backoff *= rng_.uniform(1.0 - j, 1.0 + j);
  return backoff;
}

void RecoveryOrchestrator::attachWithRetry(std::size_t inc,
                                           falcon::SlotId slot, int port,
                                           SimTime backoff,
                                           std::function<void(bool)> onDone) {
  const Status st = system_.chassis().attach(slot, port);
  if (st.ok) {
    onDone(true);
    return;
  }
  if (st.code != StatusCode::Retryable ||
      incidents_[inc].attach_retries >= policy_.max_attach_retries) {
    onDone(false);
    return;
  }
  const SimTime wait = jitteredBackoff(backoff);
  if (policy_.attach_retry_budget > 0.0 &&
      incidents_[inc].backoff_waited + wait > policy_.attach_retry_budget) {
    // The *budget* caps time-to-decision where max_attach_retries only
    // caps attempts: give up now rather than blow the MTTR SLO waiting.
    instant("attach-budget-exhausted",
            {{"waited_s", incidents_[inc].backoff_waited},
             {"budget_s", policy_.attach_retry_budget}});
    onDone(false);
    return;
  }
  ++incidents_[inc].attach_retries;
  ++reattach_retries_;
  incidents_[inc].backoff_waited += wait;
  if (ProfileSink* p = system_.sim().profiler()) {
    p->setCounter(p->counterKey("reattach_retries", "count"),
                  static_cast<double>(reattach_retries_));
  }
  instant("attach-retry", {{"backoff_s", wait}});
  system_.sim().schedule(
      wait, [this, inc, slot, port, backoff, onDone = std::move(onDone)] {
        attachWithRetry(inc, slot, port,
                        backoff * policy_.attach_backoff_multiplier, onDone);
      });
}

void RecoveryOrchestrator::degrade(std::size_t inc, devices::Gpu* failed) {
  gang_.erase(std::remove(gang_.begin(), gang_.end(), failed), gang_.end());
  ++degradations_;
  incidents_[inc].path = RecoveryIncident::Path::Degraded;
  instant("degrade", {{"gang", gang_.size()}});
  if (ProfileSink* p = system_.sim().profiler()) {
    p->setCounter(p->counterKey("degraded_gang_size", "gpus"),
                  static_cast<double>(gang_.size()));
  }
}

void RecoveryOrchestrator::resumeTraining() {
  if (gang_.empty() && !trainer_.finished()) {
    // Every gang GPU is gone and no spare could replace any of them.
    // Without an abort the run would hang forever on periodic ticks (the
    // watchdog would trip) — end it with an honest typed failure instead.
    aborted_run_ = true;
    for (auto& inc : incidents_) {
      if (!inc.resolved()) inc.abandoned = true;
    }
    instant("gang-exhausted", {{"incidents", incidents_.size()}});
    trainer_.abortTraining("unrecoverable: gang exhausted (no survivors, no spares)");
    closeOpenIncidents();
    return;
  }
  if (gang_.empty() || trainer_.finished() ||
      !trainer_.requestRestore(gang_, [this] { closeOpenIncidents(); })) {
    // Nothing to restore (training over, or no survivors): account the
    // incidents as resolved now so MTTR stays meaningful.
    closeOpenIncidents();
  }
}

void RecoveryOrchestrator::noteRunEnded() {
  const SimTime now = system_.sim().now();
  for (auto& inc : incidents_) {
    if (inc.resolved() || inc.path != RecoveryIncident::Path::WaitForLink) {
      continue;
    }
    inc.abandoned = true;
    inc.recovered_at = now;
    instant("outage-outlived-run", {{"port", inc.fault.port}});
  }
}

void RecoveryOrchestrator::closeOpenIncidents() {
  const SimTime now = system_.sim().now();
  for (auto& inc : incidents_) {
    if (inc.resolved()) continue;
    inc.recovered_at = now;
    instant("recovered", {{"path", toString(inc.path)},
                          {"mttr_s", inc.mttr()},
                          {"device", inc.fault.device_name}});
  }
  if (ProfileSink* p = system_.sim().profiler()) {
    p->setCounter(p->counterKey("lost_iterations", "count"),
                  static_cast<double>(trainer_.lostIterations()));
    p->setCounter(p->counterKey("degraded_gang_size", "gpus"),
                  static_cast<double>(gang_.size()));
  }
}

}  // namespace composim::core
