// composim: training input pipeline (paper Fig 8).
//
// Models the PyTorch DataLoader path: batches are read from storage (as
// fabric flows, so a Falcon-attached NVMe pays the switch path and a NAS
// baseline pays the NIC), staged in host memory, preprocessed by CPU
// worker threads, and queued for the trainer. Prefetching keeps up to
// `prefetch_batches` batches in flight, which is what hides storage and
// CPU latency under GPU compute — until the storage device becomes the
// bottleneck (the Fig 15 effect).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "devices/host_cpu.hpp"
#include "devices/storage.hpp"
#include "dl/dataset.hpp"
#include "fabric/flow_network.hpp"

namespace composim::dl {

struct PipelineOptions {
  int prefetch_batches = 4;
};

class DataPipeline {
 public:
  DataPipeline(Simulator& sim, devices::HostCpu& cpu,
               devices::StorageDevice& storage, fabric::NodeId hostMemory,
               DatasetSpec dataset, int samplesPerBatch,
               PipelineOptions options = {});

  DataPipeline(const DataPipeline&) = delete;
  DataPipeline& operator=(const DataPipeline&) = delete;

  /// Begin prefetching. Idempotent.
  void start();
  /// Stop producing new batches (in-flight ones finish).
  void stop();

  /// Ask for the next ready batch; `ready` fires (possibly immediately on
  /// a later event) once a preprocessed batch is available and consumed.
  void requestBatch(std::function<void()> ready);

  std::int64_t batchesDelivered() const { return delivered_; }
  std::int64_t batchesProduced() const { return produced_; }
  /// Cumulative time consumers spent waiting on the pipeline.
  SimTime stallTime() const { return stall_time_; }
  Bytes hostStagingBytes() const { return staging_bytes_; }

  Bytes storageBytesPerBatch() const;
  Bytes deviceBytesPerBatch() const {
    return dataset_.device_bytes_per_sample * samples_per_batch_;
  }

  /// Quiescent-point snapshot: the prefetch queue must be full (no batch
  /// mid-read/preprocess) and no consumer waiting, so the state reduces to
  /// scalar counters. Staged host memory itself lives in HostCpu's
  /// accounting and is restored there.
  struct State {
    bool running = false;
    int ready = 0;
    std::int64_t delivered = 0;
    std::int64_t produced = 0;
    SimTime stall_time = 0.0;
    Bytes staging_bytes = 0;
  };

  State state() const {
    if (in_flight_ != 0 || !waiters_.empty()) {
      throw std::logic_error("DataPipeline::state: batches in flight");
    }
    return State{running_, ready_, delivered_, produced_, stall_time_,
                 staging_bytes_};
  }

  void restoreState(const State& st) {
    if (in_flight_ != 0 || !waiters_.empty()) {
      throw std::logic_error("DataPipeline::restoreState: batches in flight");
    }
    running_ = st.running;
    ready_ = st.ready;
    delivered_ = st.delivered;
    produced_ = st.produced;
    stall_time_ = st.stall_time;
    staging_bytes_ = st.staging_bytes;
  }

 private:
  void maybeProduce();
  void onBatchReady();
  void deliverIfPossible();

  Simulator& sim_;
  devices::HostCpu& cpu_;
  devices::StorageDevice& storage_;
  fabric::NodeId host_memory_;
  DatasetSpec dataset_;
  int samples_per_batch_;
  PipelineOptions options_;

  bool running_ = false;
  int in_flight_ = 0;      // batches being read/preprocessed
  int ready_ = 0;          // batches waiting for a consumer
  std::deque<std::pair<SimTime, std::function<void()>>> waiters_;
  std::int64_t delivered_ = 0;
  std::int64_t produced_ = 0;
  SimTime stall_time_ = 0.0;
  Bytes staging_bytes_ = 0;
};

}  // namespace composim::dl
