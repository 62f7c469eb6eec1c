#include "devices/host_cpu.hpp"

#include <algorithm>
#include <utility>

namespace composim::devices {

void HostCpu::touchAccounting() {
  const SimTime now = sim_.now();
  st_.busy_accum += busy_threads_ * (now - st_.last_change);
  st_.last_change = now;
}

void HostCpu::submit(SimTime duration, std::function<void()> done) {
  Task t{std::max(0.0, duration), std::move(done)};
  if (busy_threads_ < totalThreads()) {
    dispatch(std::move(t));
  } else {
    queue_.push_back(std::move(t));
  }
}

void HostCpu::dispatch(Task task) {
  touchAccounting();
  ++busy_threads_;
  sim_.schedule(task.duration, [this, cb = std::move(task.done)]() mutable {
    touchAccounting();
    --busy_threads_;
    if (cb) cb();
    if (!queue_.empty() && busy_threads_ < totalThreads()) {
      Task next = std::move(queue_.front());
      queue_.pop_front();
      dispatch(std::move(next));
    }
  });
}

SimTime HostCpu::busyThreadTime() const {
  return st_.busy_accum + busy_threads_ * (sim_.now() - st_.last_change);
}

void HostCpu::freeMemory(Bytes bytes) {
  st_.host_mem_used = std::max<Bytes>(0, st_.host_mem_used - bytes);
}

}  // namespace composim::devices
