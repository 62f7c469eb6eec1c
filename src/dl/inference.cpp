#include "dl/inference.hpp"

#include <algorithm>
#include <cmath>

#include "fabric/link_catalog.hpp"
#include "telemetry/metrics.hpp"

namespace composim::dl {

InferenceEngine::InferenceEngine(Simulator& sim, fabric::FlowNetwork& net,
                                 devices::Gpu& gpu, fabric::NodeId hostMemory,
                                 ModelSpec model, InferenceOptions options)
    : sim_(sim), net_(net), gpu_(gpu), host_memory_(hostMemory),
      model_(std::move(model)), options_(options), rng_(options.seed) {}

SimTime InferenceEngine::unloadedLatency() const {
  devices::KernelDesc k;
  k.flops = model_.forwardFlopsPerSample();
  k.mem_bytes = model_.activationBytesPerSample();
  k.precision = options_.precision;
  k.efficiency = (options_.precision == devices::Precision::FP16)
                     ? model_.fp16_efficiency
                     : model_.fp32_efficiency;
  const auto upload = static_cast<double>(model_.input_bytes_per_sample);
  // Rough unloaded path: dispatch + PCIe3-class upload + kernel + result.
  return options_.host_overhead_per_launch + upload / units::GBps(12.0) +
         gpu_.kernelDuration(k) +
         static_cast<double>(options_.result_bytes) / units::GBps(12.0);
}

void InferenceEngine::serve(double arrivalRps, int numRequests,
                            std::function<void(const InferenceStats&)> done) {
  arrival_rps_ = arrivalRps;
  to_arrive_ = numRequests;
  total_ = numRequests;
  completed_ = 0;
  start_ = sim_.now();
  done_ = std::move(done);
  latencies_ms_.clear();
  if (numRequests <= 0) {
    sim_.schedule(0.0, [this] { finishIfDone(); });
    return;
  }
  latencies_ms_.reserve(static_cast<std::size_t>(numRequests));
  scheduleArrival();
}

void InferenceEngine::scheduleArrival() {
  if (to_arrive_ <= 0) return;
  sim_.schedule(rng_.exponential(arrival_rps_), [this] {
    --to_arrive_;
    queue_.push_back(Request{sim_.now()});
    maybeLaunchBatch();
    scheduleArrival();
  });
}

void InferenceEngine::maybeLaunchBatch() {
  if (gpu_busy_ || queue_.empty()) return;
  gpu_busy_ = true;
  const int batch = std::min<int>(options_.max_batch,
                                  static_cast<int>(queue_.size()));
  std::vector<Request> taken(queue_.begin(), queue_.begin() + batch);
  queue_.erase(queue_.begin(), queue_.begin() + batch);
  batch_sum_ += batch;
  ++batches_;

  // Serving-stack dispatch, H2D upload of the batch, one forward kernel,
  // then D2H results.
  fabric::FlowOptions fo;
  fo.tag = "infer-h2d";
  fo.extraLatency =
      fabric::catalog::dmaEndpointOverhead() + options_.host_overhead_per_launch;
  net_.startFlow(
      host_memory_, gpu_.node(), model_.input_bytes_per_sample * batch,
      [this, taken = std::move(taken), batch](const fabric::FlowResult&) mutable {
        devices::KernelDesc k;
        k.flops = model_.forwardFlopsPerSample() * batch;
        k.mem_bytes = model_.activationBytesPerSample() * batch;
        k.precision = options_.precision;
        k.efficiency = (options_.precision == devices::Precision::FP16)
                           ? model_.fp16_efficiency
                           : model_.fp32_efficiency;
        gpu_.launchKernel(k, [this, taken = std::move(taken), batch]() mutable {
          net_.startFlow(gpu_.node(), host_memory_,
                         options_.result_bytes * batch,
                         [this, taken = std::move(taken)](const fabric::FlowResult&) {
                           for (const auto& r : taken) {
                             latencies_ms_.push_back(units::to_ms(sim_.now() - r.arrival));
                           }
                           completed_ += static_cast<int>(taken.size());
                           gpu_busy_ = false;
                           maybeLaunchBatch();
                           finishIfDone();
                         });
        });
      },
      std::move(fo));
}

void InferenceEngine::finishIfDone() {
  if (completed_ < total_ || done_ == nullptr) return;
  InferenceStats s;
  s.requests = total_;
  s.duration = sim_.now() - start_;
  s.throughput_rps = s.duration > 0.0 ? total_ / s.duration : 0.0;
  std::sort(latencies_ms_.begin(), latencies_ms_.end());
  s.latency_p50_ms = telemetry::percentile(latencies_ms_, 50.0);
  s.latency_p95_ms = telemetry::percentile(latencies_ms_, 95.0);
  s.latency_p99_ms = telemetry::percentile(latencies_ms_, 99.0);
  s.mean_batch = batches_ > 0 ? batch_sum_ / batches_ : 0.0;
  auto d = std::move(done_);
  done_ = nullptr;
  d(s);
}

}  // namespace composim::dl
