#include "devices/gpu.hpp"

#include <algorithm>
#include <utility>

namespace composim::devices {

SimTime Gpu::kernelDuration(const KernelDesc& k) const {
  const double peak =
      (k.precision == Precision::FP16) ? spec_.fp16_flops : spec_.fp32_flops;
  const double rate = std::max(1.0, peak * std::clamp(k.efficiency, 1e-4, 1.0));
  const double t_compute = k.flops / rate;
  const double t_memory =
      static_cast<double>(k.mem_bytes) / spec_.mem_bandwidth;
  return spec_.kernel_launch_overhead + std::max(t_compute, t_memory);
}

void Gpu::launchKernel(const KernelDesc& k, std::function<void()> done) {
  ++st_.kernels_launched;
  queue_.push_back(Pending{k, std::move(done)});
  if (!busy_) startNext();
}

void Gpu::startNext() {
  if (queue_.empty()) return;
  Pending& p = queue_.front();
  const SimTime d = kernelDuration(p.desc);
  const SimTime t_memory =
      static_cast<double>(p.desc.mem_bytes) / spec_.mem_bandwidth;
  busy_ = true;
  busy_since_ = sim_.now();
  current_mem_busy_ = std::min(t_memory, d);

  std::uint32_t k;
  if (free_running_.empty()) {
    k = static_cast<std::uint32_t>(running_.size());
    running_.emplace_back();
  } else {
    k = free_running_.back();
    free_running_.pop_back();
  }
  running_[k].duration = d;
  running_[k].done = std::move(p.done);
  queue_.pop_front();
  sim_.schedule(d, [this, k] { retire(k); });
}

void Gpu::retire(std::uint32_t k) {
  busy_ = false;
  st_.busy_accum += running_[k].duration;
  st_.mem_busy_accum += current_mem_busy_;
  current_mem_busy_ = 0.0;
  ++st_.kernels_retired;
  // Free the record first: the callback may launch a kernel that reuses it.
  const std::function<void()> done = std::move(running_[k].done);
  running_[k].done = nullptr;
  free_running_.push_back(k);
  if (done) done();
  startNext();
}

void Gpu::allocate(Bytes bytes) {
  if (st_.allocated + bytes > spec_.mem_capacity) {
    throw GpuOutOfMemory(name_ + ": allocation of " + formatBytes(bytes) +
                         " exceeds " + formatBytes(spec_.mem_capacity) +
                         " (in use: " + formatBytes(st_.allocated) + ")");
  }
  st_.allocated += bytes;
}

void Gpu::free(Bytes bytes) {
  st_.allocated = std::max<Bytes>(0, st_.allocated - bytes);
}

SimTime Gpu::busyTime() const {
  return st_.busy_accum + (busy_ ? sim_.now() - busy_since_ : 0.0);
}

SimTime Gpu::memBusyTime() const {
  if (!busy_) return st_.mem_busy_accum;
  // Attribute the in-flight kernel's memory time proportionally.
  const SimTime elapsed = sim_.now() - busy_since_;
  return st_.mem_busy_accum + std::min(current_mem_busy_, elapsed);
}

}  // namespace composim::devices
