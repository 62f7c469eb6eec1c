// composim: inference serving engine.
//
// The paper motivates YOLO by its real-time speed ("at least 45 frames/s")
// — this module lets the reproduction measure serving on a composed GPU:
// Poisson request arrivals, dynamic batching (take whatever is queued up
// to max_batch when the GPU frees), H2D input upload, a forward-only
// kernel, D2H result, and per-request latency percentiles.
#pragma once

#include <functional>
#include <vector>

#include "devices/gpu.hpp"
#include "dl/model.hpp"
#include "fabric/flow_network.hpp"
#include "sim/random.hpp"

namespace composim::dl {

struct InferenceOptions {
  int max_batch = 8;
  devices::Precision precision = devices::Precision::FP16;
  std::uint64_t seed = 7;
  /// Result payload per request (detections / logits), D2H.
  Bytes result_bytes = units::KB(16);
  /// Host-side cost per batch launch (request dispatch, tensor prep,
  /// Python serving stack) — the fixed cost dynamic batching amortizes.
  SimTime host_overhead_per_launch = units::milliseconds(2.0);
};

struct InferenceStats {
  int requests = 0;
  SimTime duration = 0.0;
  double throughput_rps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double mean_batch = 0.0;
};

class InferenceEngine {
 public:
  InferenceEngine(Simulator& sim, fabric::FlowNetwork& net, devices::Gpu& gpu,
                  fabric::NodeId hostMemory, ModelSpec model,
                  InferenceOptions options = {});

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Serve `numRequests` Poisson arrivals at `arrivalRps`; `done` fires
  /// with the aggregate statistics once the last response is delivered.
  void serve(double arrivalRps, int numRequests,
             std::function<void(const InferenceStats&)> done);

  /// Latency of one isolated request at batch size 1 (no queueing).
  SimTime unloadedLatency() const;

 private:
  struct Request {
    SimTime arrival = 0.0;
  };

  void scheduleArrival();
  void maybeLaunchBatch();
  void finishIfDone();

  Simulator& sim_;
  fabric::FlowNetwork& net_;
  devices::Gpu& gpu_;
  fabric::NodeId host_memory_;
  ModelSpec model_;
  InferenceOptions options_;
  Rng rng_;

  double arrival_rps_ = 0.0;
  int to_arrive_ = 0;
  int completed_ = 0;
  int total_ = 0;
  bool gpu_busy_ = false;
  SimTime start_ = 0.0;
  std::vector<Request> queue_;
  std::vector<double> latencies_ms_;
  double batch_sum_ = 0.0;
  int batches_ = 0;
  std::function<void(const InferenceStats&)> done_;
};

}  // namespace composim::dl
