// composim: host CPU model.
//
// A pool of hardware threads executing submitted tasks FIFO across the
// earliest-available thread (how a PyTorch DataLoader worker pool behaves
// when workers outnumber cores is irrelevant here: we schedule onto
// hardware threads directly). Utilization accounting feeds Fig 13.
#pragma once

#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include "devices/specs.hpp"
#include "sim/simulator.hpp"

namespace composim::devices {

class HostCpu {
 public:
  HostCpu(Simulator& sim, CpuSpec spec) : sim_(sim), spec_(spec) {}

  HostCpu(const HostCpu&) = delete;
  HostCpu& operator=(const HostCpu&) = delete;

  const CpuSpec& spec() const { return spec_; }

  /// Submit a task consuming `duration` seconds of one hardware thread;
  /// `done` fires at completion. Tasks queue when all threads are busy.
  void submit(SimTime duration, std::function<void()> done);

  int busyThreads() const { return busy_threads_; }
  int totalThreads() const { return spec_.totalThreads(); }
  std::size_t queuedTasks() const { return queue_.size(); }

  /// Cumulative busy thread-seconds (telemetry diffs this for Fig 13).
  SimTime busyThreadTime() const;

  /// --- host memory accounting (Fig 14) ---
  void allocateMemory(Bytes bytes) { st_.host_mem_used += bytes; }
  void freeMemory(Bytes bytes);
  Bytes memoryUsed() const { return st_.host_mem_used; }
  Bytes memoryCapacity() const { return spec_.system_memory; }
  double memoryUtilization() const {
    return static_cast<double>(st_.host_mem_used) /
           static_cast<double>(spec_.system_memory);
  }

  /// Quiescent-point snapshot (no task running or queued).
  struct State {
    SimTime busy_accum = 0.0;  // integral of busy threads over time
    SimTime last_change = 0.0;
    Bytes host_mem_used = 0;
  };

  State state() const {
    if (busy_threads_ != 0 || !queue_.empty()) {
      throw std::logic_error("HostCpu::state: tasks in flight");
    }
    return st_;
  }

  void restoreState(const State& st) {
    if (busy_threads_ != 0 || !queue_.empty()) {
      throw std::logic_error("HostCpu::restoreState: tasks in flight");
    }
    st_ = st;
  }

 private:
  struct Task {
    SimTime duration;
    std::function<void()> done;
  };

  void dispatch(Task task);

  void touchAccounting();

  Simulator& sim_;
  CpuSpec spec_;
  std::deque<Task> queue_;
  int busy_threads_ = 0;
  State st_;
};

}  // namespace composim::devices
