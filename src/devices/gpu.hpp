// composim: GPU device model.
//
// Kernels execute serially on the device (one compute stream) under a
// roofline duration model: d = launch + max(flops/rate, bytes/mem_bw).
// DMA copies go through the fabric flow model and do not occupy the
// compute stream (they use the copy engines), which is what lets DDP
// overlap gradient all-reduce with back-propagation.
//
// Accounting matches what nvidia-smi / the paper's Fig 10 report:
//   - busy time        -> "GPU utilization"
//   - memory-busy time -> "% of time memory was being accessed"
//   - allocated bytes  -> "GPU memory utilization"
#pragma once

#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "devices/specs.hpp"
#include "fabric/topology.hpp"
#include "sim/simulator.hpp"

namespace composim::devices {

enum class Precision { FP32, FP16 };

struct KernelDesc {
  Flops flops = 0.0;
  Bytes mem_bytes = 0;  // HBM traffic generated by the kernel
  Precision precision = Precision::FP16;
  /// Fraction of the peak FLOP rate this kernel can sustain (operator
  /// efficiency: depthwise convs ~2%, big GEMMs ~30%+).
  double efficiency = 0.3;
};

class GpuOutOfMemory : public std::runtime_error {
 public:
  explicit GpuOutOfMemory(const std::string& what) : std::runtime_error(what) {}
};

class Gpu {
 public:
  Gpu(Simulator& sim, fabric::NodeId node, GpuSpec spec, std::string name)
      : sim_(sim), node_(node), spec_(std::move(spec)), name_(std::move(name)) {}

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  const std::string& name() const { return name_; }
  fabric::NodeId node() const { return node_; }
  const GpuSpec& spec() const { return spec_; }

  /// Enqueue a kernel; `done` fires when it retires. Kernels run FIFO.
  void launchKernel(const KernelDesc& k, std::function<void()> done);

  /// Duration the roofline model assigns to `k` (excludes queueing).
  SimTime kernelDuration(const KernelDesc& k) const;

  /// --- memory allocator ---
  void allocate(Bytes bytes);
  void free(Bytes bytes);
  Bytes allocatedBytes() const { return st_.allocated; }
  Bytes capacity() const { return spec_.mem_capacity; }
  double memoryUtilization() const {
    return static_cast<double>(st_.allocated) /
           static_cast<double>(spec_.mem_capacity);
  }

  /// Attribute `duration` of NCCL communication-kernel time to this GPU's
  /// busy accounting (collectives run on SMs and show as utilization in
  /// nvidia-smi, but they do not occupy the simulated compute queue).
  void creditCommBusy(SimTime duration) {
    if (duration > 0.0) st_.busy_accum += duration;
  }

  /// --- cumulative accounting (telemetry samples the deltas) ---
  SimTime busyTime() const;
  SimTime memBusyTime() const;
  std::uint64_t kernelsLaunched() const { return st_.kernels_launched; }
  std::uint64_t kernelsRetired() const { return st_.kernels_retired; }
  bool busy() const { return busy_; }

  /// Quiescent-point snapshot (no kernel running or queued): allocator and
  /// cumulative accounting only. Throws std::logic_error mid-kernel.
  struct State {
    Bytes allocated = 0;
    SimTime busy_accum = 0.0;
    SimTime mem_busy_accum = 0.0;
    std::uint64_t kernels_launched = 0;
    std::uint64_t kernels_retired = 0;
  };

  State state() const {
    if (busy_ || !queue_.empty()) {
      throw std::logic_error("Gpu::state: kernel in flight on " + name_);
    }
    return st_;
  }

  void restoreState(const State& st) {
    if (busy_ || !queue_.empty()) {
      throw std::logic_error("Gpu::restoreState: kernel in flight on " + name_);
    }
    st_ = st;
  }

 private:
  struct Pending {
    KernelDesc desc;
    std::function<void()> done;
  };

  void startNext();
  /// Completion event of the running kernel.
  void retire();

  Simulator& sim_;
  fabric::NodeId node_;
  GpuSpec spec_;
  std::string name_;

  State st_;
  std::deque<Pending> queue_;
  bool busy_ = false;
  SimTime busy_since_ = 0.0;
  SimTime current_mem_busy_ = 0.0;
  // The running kernel's duration and callback live here, so its
  // completion event captures only `this`.
  SimTime current_duration_ = 0.0;
  std::function<void()> current_done_;
};

}  // namespace composim::devices
