#include "dl/pipeline.hpp"

#include <memory>
#include <utility>

namespace composim::dl {

namespace {
/// CPU preprocessing parallelism per batch (DataLoader workers).
constexpr int kPreprocessWorkers = 24;
}  // namespace

DataPipeline::DataPipeline(Simulator& sim, devices::HostCpu& cpu,
                           devices::StorageDevice& storage,
                           fabric::NodeId hostMemory, DatasetSpec dataset,
                           int samplesPerBatch, PipelineOptions options)
    : sim_(sim), cpu_(cpu), storage_(storage), host_memory_(hostMemory),
      dataset_(std::move(dataset)), samples_per_batch_(samplesPerBatch),
      options_(options) {}

Bytes DataPipeline::storageBytesPerBatch() const {
  return dataset_.storageBytesPerSample() * samples_per_batch_;
}

void DataPipeline::start() {
  if (st_.running) return;
  st_.running = true;
  maybeProduce();
}

void DataPipeline::stop() { st_.running = false; }

void DataPipeline::maybeProduce() {
  while (st_.running && in_flight_ + st_.ready < options_.prefetch_batches) {
    ++in_flight_;
    const Bytes stage = storageBytesPerBatch() + deviceBytesPerBatch();
    st_.staging_bytes += stage;
    cpu_.allocateMemory(stage);
    storage_.read(storageBytesPerBatch(), host_memory_, devices::AccessPattern::Random,
                  [this](const fabric::FlowResult& r) {
                    if (r.status != fabric::FlowStatus::Completed) {
                      // Storage path failed (e.g. injected link-down):
                      // drop the batch; the trainer will stall visibly.
                      --in_flight_;
                      return;
                    }
                    // Fan preprocessing across DataLoader workers.
                    const SimTime per_chunk =
                        dataset_.cpu_preprocess_per_sample *
                        samples_per_batch_ / kPreprocessWorkers;
                    auto remaining = std::make_shared<int>(kPreprocessWorkers);
                    for (int c = 0; c < kPreprocessWorkers; ++c) {
                      cpu_.submit(per_chunk, [this, remaining] {
                        if (--*remaining == 0) onBatchReady();
                      });
                    }
                  });
  }
}

void DataPipeline::onBatchReady() {
  --in_flight_;
  ++st_.ready;
  ++st_.produced;
  deliverIfPossible();
  maybeProduce();
}

void DataPipeline::requestBatch(std::function<void()> ready) {
  waiters_.emplace_back(sim_.now(), std::move(ready));
  deliverIfPossible();
  maybeProduce();
}

void DataPipeline::deliverIfPossible() {
  while (st_.ready > 0 && !waiters_.empty()) {
    auto [asked_at, cb] = std::move(waiters_.front());
    waiters_.pop_front();
    --st_.ready;
    ++st_.delivered;
    st_.stall_time += sim_.now() - asked_at;
    const Bytes stage = storageBytesPerBatch() + deviceBytesPerBatch();
    st_.staging_bytes -= stage;
    cpu_.freeMemory(stage);
    sim_.schedule(0.0, std::move(cb));
  }
}

}  // namespace composim::dl
