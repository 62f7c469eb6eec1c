#include "dl/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "fabric/link_catalog.hpp"

namespace composim::dl {

namespace {
constexpr Bytes kWorkspaceBytes = units::GiB(1.5);  // CUDA context + cuDNN
constexpr int kWarmupIterations = 3;                // excluded from means
constexpr int kMacroGroups = 12;                    // execution granularity
/// Fixed per-iteration host-side cost (Python, launches, optimizer
/// bookkeeping). Shows up as the GPU idle gap between iterations.
constexpr SimTime kStepOverhead = units::milliseconds(10.0);

// The optimizer is Adam, as all the paper's benchmarks use. Its state
// bytes per parameter (excluding the working copy and gradient, which the
// trainer counts by precision) set what ZeRO/FSDP sharding trades against
// batch size (the Fig 16 "6 -> 10" effect): the m and v moments, plus an
// FP32 master copy under mixed precision.
constexpr Bytes adamStatePerParam(devices::Precision precision) {
  return (precision == devices::Precision::FP16 ? 4 : 0) + 8;
}
constexpr double kAdamFlopsPerParam = 8.0;  // one element-wise update
}  // namespace

const char* toString(Strategy s) {
  switch (s) {
    case Strategy::DataParallel: return "DP";
    case Strategy::DistributedDataParallel: return "DDP";
  }
  return "?";
}

Trainer::Trainer(Simulator& sim, fabric::FlowNetwork& net,
                 fabric::Topology& topo, std::vector<devices::Gpu*> gpus,
                 devices::HostCpu& cpu, fabric::NodeId hostMemory,
                 devices::StorageDevice& storage, ModelSpec model,
                 DatasetSpec dataset, TrainerOptions options)
    : sim_(sim), net_(net), topo_(topo), gpus_(std::move(gpus)), cpu_(cpu),
      host_memory_(hostMemory), storage_(storage), model_(std::move(model)),
      dataset_(std::move(dataset)), options_(options), rng_(options.seed) {
  if (gpus_.empty()) throw std::invalid_argument("Trainer: no GPUs");
  batch_per_gpu_ = effectiveBatchPerGpu(model_, options_);
  epochs_ = options_.epochs > 0 ? options_.epochs : model_.paper_epochs;

  std::vector<fabric::NodeId> ranks;
  ranks.reserve(gpus_.size());
  for (const auto* g : gpus_) ranks.push_back(g->node());
  comm_ = std::make_unique<collectives::Communicator>(sim_, net_, topo_, ranks);
  track_ = "trainer/" + topo_.node(gpus_.front()->node()).name;

  groups_ = model_.partition(kMacroGroups);

  // Bucket plan: coalesce macro-group gradients into ~equal-size buckets,
  // each launched when its last backward group retires (groups run in
  // reverse order during backward).
  const int nbuckets = std::max(1, std::min<int>(options_.gradient_buckets,
                                                 static_cast<int>(groups_.size())));
  const Bytes elem = (options_.precision == devices::Precision::FP16) ? 2 : 4;
  const Bytes total = model_.totalParams() * elem;
  const Bytes per_bucket = std::max<Bytes>(1, total / nbuckets);
  BucketPlan current;
  for (int g = static_cast<int>(groups_.size()) - 1; g >= 0; --g) {
    current.bytes += groups_[static_cast<std::size_t>(g)].params * elem;
    current.last_group = g;
    if (current.bytes >= per_bucket &&
        static_cast<int>(buckets_.size()) < nbuckets - 1) {
      buckets_.push_back(current);
      current = BucketPlan{};
    }
  }
  if (current.bytes > 0) buckets_.push_back(current);

  const int global_batch = batch_per_gpu_ * static_cast<int>(gpus_.size());
  pipeline_ = std::make_unique<DataPipeline>(sim_, cpu_, storage_, host_memory_,
                                             dataset_, global_batch,
                                             options_.pipeline);
}

Trainer::~Trainer() {
  for (auto* g : gpus_) {
    if (allocated_per_gpu_ > 0) g->free(allocated_per_gpu_);
  }
}

Bytes Trainer::h2dBytesPerGpu() const {
  return dataset_.device_bytes_per_sample * batch_per_gpu_;
}

Bytes Trainer::perGpuMemoryNeeded(int batchPerGpu) const {
  const Bytes elem = (options_.precision == devices::Precision::FP16) ? 2 : 4;
  const std::int64_t params = model_.totalParams();
  // params + grads + optimizer state
  Bytes states = params * (2 * elem + adamStatePerParam(options_.precision));
  if (options_.sharded) states /= static_cast<Bytes>(gpus_.size());
  Bytes act = model_.trainingActivationBytesPerSample();
  if (options_.precision == devices::Precision::FP32) act *= 2;
  return states + act * batchPerGpu + kWorkspaceBytes +
         dataset_.device_bytes_per_sample * batchPerGpu;
}

int Trainer::maxFeasibleBatchPerGpu() const {
  const Bytes cap = gpus_.front()->capacity();
  int feasible = 0;
  for (int b = 1; b <= 4096; ++b) {
    if (perGpuMemoryNeeded(b) > cap) break;
    feasible = b;
  }
  return feasible;
}

int effectiveBatchPerGpu(const ModelSpec& model,
                         const TrainerOptions& options) {
  return options.batch_per_gpu > 0 ? options.batch_per_gpu
                                   : model.paper_batch_per_gpu;
}

EpochIterations epochIterations(const ModelSpec& model,
                                const DatasetSpec& dataset,
                                const TrainerOptions& options,
                                std::size_t gpus) {
  const std::int64_t global_batch =
      static_cast<std::int64_t>(effectiveBatchPerGpu(model, options)) *
      static_cast<std::int64_t>(gpus) *
      std::max(1, options.gradient_accumulation_steps);
  EpochIterations out;
  out.full = (dataset.train_samples + global_batch - 1) / global_batch;
  out.simulated = out.full;
  if (options.max_iterations_per_epoch > 0) {
    out.simulated = std::min<std::int64_t>(out.full,
                                           options.max_iterations_per_epoch);
  }
  return out;
}

std::int64_t Trainer::iterationsPerEpochFull() const {
  return epochIterations(model_, dataset_, options_, gpus_.size()).full;
}

void Trainer::start(std::function<void(const TrainingResult&)> done) {
  done_ = std::move(done);
  started_ = true;
  run_start_ = sim_.now();

  const Bytes need = perGpuMemoryNeeded(batch_per_gpu_);
  try {
    for (auto* g : gpus_) g->allocate(need);
    allocated_per_gpu_ = need;
  } catch (const devices::GpuOutOfMemory& oom) {
    for (auto* g : gpus_) g->free(need);  // free() clamps, safe for partial
    allocated_per_gpu_ = 0;
    finish(false, oom.what());
    return;
  }

  // Framework footprint on the host: PyTorch + CUDA contexts + pinned
  // buffers per GPU (Fig 14's baseline system-memory usage).
  host_base_memory_ = units::GiB(10) + units::GiB(1.5) * static_cast<Bytes>(gpus_.size());
  cpu_.allocateMemory(host_base_memory_);

  iters_per_epoch_sim_ =
      epochIterations(model_, dataset_, options_, gpus_.size()).simulated;

  pipeline_->start();
  prefetchNextInput();
  beginIteration();
}

// Phase spans carry a "bucket" arg classifying what the phase's wall time
// is ("compute", "sync", "stall", "io") so telemetry::analysis attributes
// iteration time without hardcoding span names (DESIGN.md §17).
void Trainer::beginTrackSpan(const char* name, const ProfileArgs& args) {
  ++track_depth_;
  if (ProfileSink* sink = sim_.profiler()) {
    const ProfileKeys& keys = profile_keys_.get(*sink, track_);
    sink->beginSpan(keys.track, keys.category, sink->intern(name), args);
  }
}

void Trainer::endTrackSpan(const ProfileArgs& args) {
  --track_depth_;
  if (ProfileSink* sink = sim_.profiler()) {
    sink->endSpan(profile_keys_.get(*sink, track_).track, args);
  }
}

void Trainer::prefetchNextInput() {
  // Prefetch + H2D overlap compute, so they are async spans, not track
  // spans: they would not nest under the iteration that hides them.
  AsyncSpanId prefetch_span = kInvalidAsyncSpan;
  if (ProfileSink* sink = sim_.profiler()) {
    const ProfileKeys& keys = profile_keys_.get(*sink, track_);
    prefetch_span = sink->beginAsyncSpan(keys.category, keys.prefetch);
  }
  pipeline_->requestBatch([this, prefetch_span, gen = gen_] {
    // Batch is staged in host memory: copy each rank's shard to its GPU.
    AsyncSpanId h2d_span = kInvalidAsyncSpan;
    if (ProfileSink* sink = sim_.profiler()) {
      sink->endAsyncSpan(prefetch_span);
      if (gen == gen_) {
        const ProfileKeys& keys = profile_keys_.get(*sink, track_);
        h2d_span = sink->beginAsyncSpan(keys.category, keys.h2d,
                                        {{"bytes_per_gpu", h2dBytesPerGpu()}});
      }
    }
    if (gen != gen_) return;  // batch for a composition a restore replaced
    auto remaining = std::make_shared<int>(static_cast<int>(gpus_.size()));
    for (auto* g : gpus_) {
      fabric::FlowOptions fo;
      fo.tag = "h2d";
      fo.extraLatency = fabric::catalog::dmaEndpointOverhead();
      net_.startFlow(host_memory_, g->node(), h2dBytesPerGpu(),
                     [this, remaining, h2d_span, gen](const fabric::FlowResult&) {
                       if (--*remaining > 0) return;
                       if (ProfileSink* sink = sim_.profiler()) {
                         sink->endAsyncSpan(h2d_span);
                       }
                       if (gen != gen_) return;
                       input_ready_ = true;
                       if (input_waiter_) {
                         auto w = std::move(input_waiter_);
                         input_waiter_ = nullptr;
                         w();
                       }
                     },
                     std::move(fo));
    }
  });
}

void Trainer::beginIteration() {
  // The clock starts before any wait on the input pipeline: a data-bound
  // iteration is a long iteration.
  iteration_start_ = sim_.now();
  micro_step_ = 0;
  backward_done_ = false;
  pending_allreduce_ = 0;
  beginTrackSpan("iteration",
                 {{"iter", iterations_done_}, {"epoch", epoch_}});
  startMicroStep();
}

void Trainer::startMicroStep() {
  auto proceed = [this] {
    input_ready_ = false;
    // Double buffering: fetch + upload the next micro-batch under this
    // one's compute.
    prefetchNextInput();
    if (options_.strategy == Strategy::DataParallel) {
      beginTrackSpan("dp-step", {{"bucket", "compute"}});
      runDataParallelIteration();
    } else {
      beginTrackSpan("forward", {{"bucket", "compute"}});
      runForward(0);
    }
  };
  if (input_ready_) {
    proceed();
  } else {
    beginTrackSpan("input-wait", {{"bucket", "stall"}});
    input_waiter_ = [this, proceed] {
      endTrackSpan();  // input-wait
      proceed();
    };
  }
}

void Trainer::runForward(int group) {
  if (group == static_cast<int>(groups_.size())) {
    endTrackSpan();  // forward
    beginTrackSpan("backward", {{"bucket", "compute"}});
    runBackwardDdp(static_cast<int>(groups_.size()) - 1);
    return;
  }
  const auto& g = groups_[static_cast<std::size_t>(group)];
  devices::KernelDesc k;
  k.flops = g.forward_flops * batch_per_gpu_;
  k.mem_bytes = g.activation_bytes * batch_per_gpu_;
  k.precision = options_.precision;
  k.efficiency = (options_.precision == devices::Precision::FP16)
                     ? model_.fp16_efficiency
                     : model_.fp32_efficiency;
  auto remaining = std::make_shared<int>(static_cast<int>(gpus_.size()));
  for (auto* gpu : gpus_) {
    gpu->launchKernel(k, [this, remaining, group, gen = gen_] {
      if (--*remaining > 0 || gen != gen_) return;
      runForward(group + 1);
    });
  }
}

void Trainer::runBackwardDdp(int group) {
  if (group < 0) {
    endTrackSpan();  // backward
    const int accum = std::max(1, options_.gradient_accumulation_steps);
    if (micro_step_ < accum - 1) {
      ++micro_step_;
      startMicroStep();
      return;
    }
    backward_done_ = true;
    backward_done_time_ = sim_.now();
    // The span covers only the all-reduce tail not hidden under backward.
    beginTrackSpan("gradient-sync", {{"bucket", "sync"}, {"buckets_pending", pending_allreduce_}});
    if (pending_allreduce_ == 0) onComputeAndCommDone();
    return;
  }
  const auto& g = groups_[static_cast<std::size_t>(group)];
  devices::KernelDesc k;
  k.flops = 2.0 * g.forward_flops * batch_per_gpu_;
  k.mem_bytes = 2 * g.activation_bytes * batch_per_gpu_;
  k.precision = options_.precision;
  k.efficiency = (options_.precision == devices::Precision::FP16)
                     ? model_.fp16_efficiency
                     : model_.fp32_efficiency;
  // Gradient sync happens only on the final accumulation micro-step
  // (DDP's no_sync context for the earlier ones).
  const bool sync_step =
      micro_step_ >= std::max(1, options_.gradient_accumulation_steps) - 1;
  auto remaining = std::make_shared<int>(static_cast<int>(gpus_.size()));
  for (auto* gpu : gpus_) {
    gpu->launchKernel(k, [this, remaining, group, sync_step, gen = gen_] {
      if (--*remaining > 0 || gen != gen_) return;
      // DDP hook: buckets whose last group just finished its backward pass
      // start their all-reduce, overlapping the remaining backward work.
      if (sync_step) {
        for (const auto& bucket : buckets_) {
          if (bucket.last_group == group && bucket.bytes > 0) {
            ++pending_allreduce_;
            comm_->allReduce(bucket.bytes,
                             [this, gen](const collectives::CollectiveResult&) {
                               if (gen != gen_) return;
                               if (--pending_allreduce_ == 0 && backward_done_) {
                                 onComputeAndCommDone();
                               }
                             });
          }
        }
      }
      runBackwardDdp(group - 1);
    });
  }
}

void Trainer::runDataParallelIteration() {
  // DP: scatter the replica parameters from the master GPU, run the whole
  // forward+backward with no overlap, gather gradients to the master.
  const Bytes param_bytes = model_.paramBytes(options_.precision);
  comm_->broadcast(param_bytes, 0, [this, gen = gen_](const collectives::CollectiveResult&) {
    if (gen != gen_) return;
    // Forward+backward as one fused pass per GPU (no hooks in DP).
    devices::KernelDesc k;
    k.flops = 3.0 * model_.forwardFlopsPerSample() * batch_per_gpu_;
    k.mem_bytes = 3 * model_.activationBytesPerSample() * batch_per_gpu_;
    k.precision = options_.precision;
    k.efficiency = (options_.precision == devices::Precision::FP16)
                       ? model_.fp16_efficiency
                       : model_.fp32_efficiency;
    auto remaining = std::make_shared<int>(static_cast<int>(gpus_.size()));
    for (auto* gpu : gpus_) {
      gpu->launchKernel(k, [this, remaining, gen] {
        if (--*remaining > 0 || gen != gen_) return;
        comm_->reduce(gradBytes(), 0,
                      [this, gen](const collectives::CollectiveResult&) {
                        if (gen != gen_) return;
                        onComputeAndCommDone();
                      });
      });
    }
  });
}

void Trainer::onComputeAndCommDone() {
  if (options_.strategy == Strategy::DistributedDataParallel) {
    // Gradient all-reduce time not hidden under backward ran as NCCL
    // kernels: nvidia-smi counts it as GPU utilization.
    const SimTime exposed = sim_.now() - backward_done_time_;
    for (auto* gpu : gpus_) gpu->creditCommBusy(exposed);
    endTrackSpan({{"exposed_s", exposed}});  // gradient-sync
  } else {
    endTrackSpan();  // dp-step
  }
  optimizerStep([this] { endIteration(); });
}

void Trainer::optimizerStep(std::function<void()> then) {
  beginTrackSpan("optimizer", {{"bucket", "compute"}});
  then = [this, inner = std::move(then)] {
    endTrackSpan();  // optimizer
    inner();
  };
  // Element-wise optimizer update: memory bound over all state bytes.
  const std::int64_t params = model_.totalParams();
  devices::KernelDesc k;
  const Bytes elem = (options_.precision == devices::Precision::FP16) ? 2 : 4;
  k.flops = static_cast<double>(params) * kAdamFlopsPerParam;
  // Read param + grad + states, write param + states.
  k.mem_bytes = params * (2 * elem + adamStatePerParam(options_.precision) * 2);
  k.precision = devices::Precision::FP32;
  k.efficiency = 0.5;
  const bool master_only = options_.strategy == Strategy::DataParallel;
  if (options_.sharded) k.mem_bytes /= static_cast<Bytes>(gpus_.size());

  auto counter = std::make_shared<int>(master_only ? 1 : static_cast<int>(gpus_.size()));
  auto cont = std::make_shared<std::function<void()>>(std::move(then));
  auto step_done = [this, counter, cont, gen = gen_] {
    if (--*counter > 0 || gen != gen_) return;
    (*cont)();
  };
  if (master_only) {
    gpus_.front()->launchKernel(k, step_done);
  } else {
    for (auto* gpu : gpus_) gpu->launchKernel(k, step_done);
  }
}

void Trainer::endIteration() {
  // Host-side fixed cost between iterations (Python, launch latency,
  // LR-schedule bookkeeping): GPUs sit idle for it; the training process
  // threads show up in the Fig 13 CPU-utilization trace.
  cpu_.submit(kStepOverhead, nullptr);
  cpu_.submit(kStepOverhead, nullptr);
  beginTrackSpan("step-overhead", {{"bucket", "stall"}});
  sim_.schedule(kStepOverhead, [this, gen = gen_] {
    if (gen != gen_) return;
    endTrackSpan();  // step-overhead
    const SimTime dt = sim_.now() - iteration_start_;
    endTrackSpan({{"dt_s", dt}});  // iteration
    iteration_times_.push_back(dt);
    if (iteration_observer_) iteration_observer_(dt);
    ++iterations_done_;
    ++iter_in_epoch_;

    // Synthetic but realistic loss trajectory for the tracker. The noise
    // draw is retained separately: the deterministic part depends on the
    // planned total (a tail parameter under warm-prefix forking), so a
    // fork re-derives the curve from the draws under its own total.
    const double total =
        static_cast<double>(iters_per_epoch_sim_) * std::max(1, epochs_);
    const double progress = static_cast<double>(iterations_done_) / total;
    const double base = (model_.domain == Domain::NLP) ? 3.2 : 6.2;
    const double floor = (model_.domain == Domain::NLP) ? 0.9 : 1.6;
    const double noise = rng_.normal(0.0, 0.02);
    loss_noise_.push_back(noise);
    result_.loss_curve.push_back(floor + (base - floor) * std::exp(-3.0 * progress) +
                                 noise);

    if (pause_at_ > 0 && iterations_done_ == pause_at_) {
      // Warm-prefix boundary: stop the loop here. The caller guaranteed
      // (warmPrefixApplicable) this point is strictly inside an epoch and
      // not an iteration-count checkpoint, so the suppressed continuation
      // is exactly the beginIteration() that resumeTraining() will issue.
      // One-shot: a restore that rewinds below the boundary re-crosses it
      // and must train on, not pause again with nobody left to resume.
      pause_at_ = 0;
      paused_ = true;
      if (on_paused_) {
        auto cb = std::move(on_paused_);
        on_paused_ = nullptr;
        cb();
      }
      return;
    }

    if (iter_in_epoch_ >= iters_per_epoch_sim_) {
      iter_in_epoch_ = 0;
      ++epoch_;
      auto resume = [this] {
        if (epoch_ >= epochs_) {
          finish(true, {});
          return;
        }
        if (resize_requested_) {
          applyPendingResize();
          if (finished_) return;  // resize hit GPU OOM
        }
        beginIteration();
      };
      checkpoint(std::move(resume));
    } else if (options_.checkpoint_every_iters > 0 &&
               iterations_done_ % options_.checkpoint_every_iters == 0) {
      checkpoint([this] { beginIteration(); });
    } else {
      beginIteration();
    }
  });
}

void Trainer::checkpoint(std::function<void()> then) {
  checkpointing_ = true;
  const SimTime started = sim_.now();
  // FP32 model state_dict (what save_pretrained-style checkpoints write).
  const Bytes ckpt = model_.totalParams() * 4;
  beginTrackSpan("checkpoint", {{"bucket", "io"}, {"bytes", ckpt}});
  auto cont = std::make_shared<std::function<void()>>(std::move(then));
  // D2H from the master GPU, then the write to (possibly Falcon-attached)
  // storage. Training is paused: this is the Fig 9 utilization dip.
  fabric::FlowOptions fo;
  fo.tag = "checkpoint-d2h";
  net_.startFlow(gpus_.front()->node(), host_memory_, ckpt,
                 [this, ckpt, started, cont, gen = gen_](const fabric::FlowResult&) {
                   if (gen != gen_) return;
                   storage_.write(ckpt, host_memory_,
                                  [this, ckpt, started, cont, gen](const fabric::FlowResult&) {
                                    if (gen != gen_) return;
                                    checkpointing_ = false;
                                    result_.checkpoint_bytes += ckpt;
                                    result_.checkpoint_time += sim_.now() - started;
                                    if (checkpoint_observer_) {
                                      checkpoint_observer_(sim_.now() - started);
                                    }
                                    // The checkpoint is durable: this is
                                    // now the restore/replay point.
                                    ckpt_epoch_ = epoch_;
                                    ckpt_iter_in_epoch_ = iter_in_epoch_;
                                    ckpt_iters_done_ = iterations_done_;
                                    endTrackSpan();  // checkpoint
                                    (*cont)();
                                  });
                 },
                 std::move(fo));
}

bool Trainer::requestResize(std::vector<devices::Gpu*> gpus) {
  if (finished_ || gpus.empty()) return false;
  pending_resize_ = std::move(gpus);
  resize_requested_ = true;
  return true;
}

void Trainer::applyPendingResize() {
  resize_requested_ = false;
  ++resize_count_;

  // Release the outgoing composition.
  for (auto* g : gpus_) g->free(allocated_per_gpu_);
  allocated_per_gpu_ = 0;
  gpus_ = std::move(pending_resize_);
  pending_resize_.clear();

  // The model state was just checkpointed; the incoming GPUs load it and
  // training resumes at the same per-GPU batch.
  const Bytes need = perGpuMemoryNeeded(batch_per_gpu_);
  try {
    for (auto* g : gpus_) g->allocate(need);
    allocated_per_gpu_ = need;
  } catch (const devices::GpuOutOfMemory& oom) {
    for (auto* g : gpus_) g->free(need);
    allocated_per_gpu_ = 0;
    finish(false, std::string("resize failed: ") + oom.what());
    return;
  }

  recomposeGang();
  prefetchNextInput();
}

void Trainer::recomposeGang() {
  std::vector<fabric::NodeId> ranks;
  ranks.reserve(gpus_.size());
  for (const auto* g : gpus_) ranks.push_back(g->node());
  retired_comms_.push_back(std::move(comm_));
  comm_ = std::make_unique<collectives::Communicator>(sim_, net_, topo_, ranks);

  // New global batch -> new pipeline; the old one is retired (it may
  // still hold in-flight storage callbacks) and any batch it delivers
  // late simply tops up the input queue.
  pipeline_->stop();
  const int global_batch = batch_per_gpu_ * static_cast<int>(gpus_.size());
  retired_pipelines_.push_back(std::move(pipeline_));
  pipeline_ = std::make_unique<DataPipeline>(sim_, cpu_, storage_, host_memory_,
                                             dataset_, global_batch,
                                             options_.pipeline);
  pipeline_->start();

  input_ready_ = false;
  input_waiter_ = nullptr;
  iters_per_epoch_sim_ =
      epochIterations(model_, dataset_, options_, gpus_.size()).simulated;
}

bool Trainer::requestRestore(std::vector<devices::Gpu*> gpus,
                             std::function<void()> onResumed) {
  if (!started_ || finished_ || gpus.empty()) return false;

  // Orphan every in-flight continuation: kernels, flows, collectives and
  // scheduled events captured the old generation and will no-op.
  ++gen_;
  // Keep the trace well-formed: whatever phase spans the abandoned
  // iteration had open must close before the restore span opens.
  while (track_depth_ > 0) endTrackSpan({{"aborted", 1}});
  checkpointing_ = false;
  input_ready_ = false;
  input_waiter_ = nullptr;
  backward_done_ = false;
  pending_allreduce_ = 0;
  micro_step_ = 0;

  // Rewind to the replay window. Iterations completed since the last
  // durable checkpoint are lost work: they will be re-run.
  const std::int64_t lost = iterations_done_ - ckpt_iters_done_;
  result_.lost_iterations += lost;
  ++result_.restores;
  iterations_done_ = ckpt_iters_done_;
  iter_in_epoch_ = ckpt_iter_in_epoch_;
  epoch_ = ckpt_epoch_;
  if (result_.loss_curve.size() > static_cast<std::size_t>(ckpt_iters_done_)) {
    result_.loss_curve.resize(static_cast<std::size_t>(ckpt_iters_done_));
    loss_noise_.resize(static_cast<std::size_t>(ckpt_iters_done_));
  }

  // Swap the gang. free() clamps, so GPUs that already fell off the bus
  // release cleanly too.
  for (auto* g : gpus_) g->free(allocated_per_gpu_);
  allocated_per_gpu_ = 0;
  gpus_ = std::move(gpus);
  const Bytes need = perGpuMemoryNeeded(batch_per_gpu_);
  try {
    for (auto* g : gpus_) g->allocate(need);
    allocated_per_gpu_ = need;
  } catch (const devices::GpuOutOfMemory& oom) {
    for (auto* g : gpus_) g->free(need);
    allocated_per_gpu_ = 0;
    finish(false, std::string("restore failed: ") + oom.what());
    return true;  // the request was accepted; it ended the run
  }
  recomposeGang();

  // Restore I/O over the fabric: read the FP32 state_dict from storage
  // into host memory, then broadcast it to every rank. Recovery cost is
  // topology-dependent like everything else.
  const SimTime restore_start = sim_.now();
  const Bytes ckpt = model_.totalParams() * 4;
  beginTrackSpan("restore", {{"bucket", "io"}, {"bytes", ckpt}, {"gang", gpus_.size()}});
  auto resumed = std::make_shared<std::function<void()>>(std::move(onResumed));
  storage_.read(ckpt, host_memory_, devices::AccessPattern::Sequential,
                [this, ckpt, restore_start, resumed,
                 gen = gen_](const fabric::FlowResult&) {
    if (gen != gen_) return;
    auto remaining = std::make_shared<int>(static_cast<int>(gpus_.size()));
    for (auto* g : gpus_) {
      fabric::FlowOptions fo;
      fo.tag = "restore-h2d";
      fo.extraLatency = fabric::catalog::dmaEndpointOverhead();
      net_.startFlow(host_memory_, g->node(), ckpt,
                     [this, remaining, restore_start, resumed,
                      gen](const fabric::FlowResult&) {
                       if (--*remaining > 0 || gen != gen_) return;
                       result_.restore_time += sim_.now() - restore_start;
                       endTrackSpan();  // restore
                       prefetchNextInput();
                       if (*resumed) (*resumed)();
                       beginIteration();
                     },
                     std::move(fo));
    }
  });
  return true;
}

void Trainer::pauseAfter(std::int64_t iterations,
                         std::function<void()> onPaused) {
  if (started_) {
    throw std::logic_error("Trainer::pauseAfter: must be armed before start()");
  }
  if (iterations <= 0) {
    throw std::invalid_argument("Trainer::pauseAfter: iterations must be > 0");
  }
  pause_at_ = iterations;
  on_paused_ = std::move(onPaused);
}

void Trainer::resumeTraining() {
  if (!paused_) {
    throw std::logic_error("Trainer::resumeTraining: trainer is not paused");
  }
  paused_ = false;
  beginIteration();
}

Trainer::State Trainer::state() const {
  if (!paused_) {
    throw std::logic_error(
        "Trainer::state: only a paused (warm-prefix) run can be captured");
  }
  State st;
  st.rng = rng_.state();
  st.micro_step = micro_step_;
  st.epoch = epoch_;
  st.iter_in_epoch = iter_in_epoch_;
  st.iterations_done = iterations_done_;
  st.ckpt_epoch = ckpt_epoch_;
  st.ckpt_iter_in_epoch = ckpt_iter_in_epoch_;
  st.ckpt_iters_done = ckpt_iters_done_;
  st.input_ready = input_ready_;
  st.backward_done_time = backward_done_time_;
  st.host_base_memory = host_base_memory_;
  st.iteration_start = iteration_start_;
  st.iteration_times = iteration_times_;
  st.allocated_per_gpu = allocated_per_gpu_;
  st.run_start = run_start_;
  st.checkpoint_time = result_.checkpoint_time;
  st.checkpoint_bytes = result_.checkpoint_bytes;
  st.restores = result_.restores;
  st.lost_iterations = result_.lost_iterations;
  st.restore_time = result_.restore_time;
  st.loss_noise = loss_noise_;
  return st;
}

void Trainer::restoreRun(const State& st,
                         std::function<void(const TrainingResult&)> done) {
  if (started_) {
    throw std::logic_error(
        "Trainer::restoreRun: target trainer already started");
  }
  done_ = std::move(done);
  started_ = true;
  paused_ = true;

  rng_.setState(st.rng);
  micro_step_ = st.micro_step;
  epoch_ = st.epoch;
  iter_in_epoch_ = st.iter_in_epoch;
  iterations_done_ = st.iterations_done;
  ckpt_epoch_ = st.ckpt_epoch;
  ckpt_iter_in_epoch_ = st.ckpt_iter_in_epoch;
  ckpt_iters_done_ = st.ckpt_iters_done;
  input_ready_ = st.input_ready;
  input_waiter_ = nullptr;
  backward_done_ = false;
  backward_done_time_ = st.backward_done_time;
  pending_allreduce_ = 0;
  iteration_start_ = st.iteration_start;
  iteration_times_ = st.iteration_times;
  run_start_ = st.run_start;
  // Memory the prefix allocated is already accounted in the restored
  // device states; adopt the bookkeeping so finish()/~Trainer release it.
  host_base_memory_ = st.host_base_memory;
  allocated_per_gpu_ = st.allocated_per_gpu;

  result_.checkpoint_time = st.checkpoint_time;
  result_.checkpoint_bytes = st.checkpoint_bytes;
  result_.restores = st.restores;
  result_.lost_iterations = st.lost_iterations;
  result_.restore_time = st.restore_time;

  // Re-derive the loss curve from the captured noise draws under THIS
  // trainer's planned total, which may differ from the prefix donor's.
  iters_per_epoch_sim_ =
      epochIterations(model_, dataset_, options_, gpus_.size()).simulated;
  loss_noise_ = st.loss_noise;
  const double total =
      static_cast<double>(iters_per_epoch_sim_) * std::max(1, epochs_);
  const double base = (model_.domain == Domain::NLP) ? 3.2 : 6.2;
  const double floor = (model_.domain == Domain::NLP) ? 0.9 : 1.6;
  result_.loss_curve.clear();
  result_.loss_curve.reserve(loss_noise_.size());
  for (std::size_t i = 0; i < loss_noise_.size(); ++i) {
    const double progress = static_cast<double>(i + 1) / total;
    result_.loss_curve.push_back(
        floor + (base - floor) * std::exp(-3.0 * progress) + loss_noise_[i]);
  }
}

bool Trainer::abortTraining(const std::string& reason) {
  if (!started_ || finished_) return false;
  // Orphan in-flight continuations and close open trace spans, exactly as
  // a restore would — then finish with an honest error instead of resuming.
  ++gen_;
  while (track_depth_ > 0) endTrackSpan({{"aborted", 1}});
  finish(false, reason);
  return true;
}

void Trainer::finish(bool completed, const std::string& error) {
  finished_ = true;
  pipeline_->stop();
  if (host_base_memory_ > 0) {
    cpu_.freeMemory(host_base_memory_);
    host_base_memory_ = 0;
  }
  result_.completed = completed;
  result_.error = error;
  result_.epochs = epoch_;
  result_.iterations_run = iterations_done_;
  result_.iterations_full = iterationsPerEpochFull() * epochs_;
  result_.simulated_time = sim_.now() - run_start_;
  result_.data_stall_time = pipeline_->stallTime();

  // Steady-state statistics (skip warmup; pipeline priming distorts the
  // first iterations).
  if (!iteration_times_.empty()) {
    const std::size_t skip =
        iteration_times_.size() > kWarmupIterations * 2 ? kWarmupIterations : 0;
    double sum = 0.0;
    for (std::size_t i = skip; i < iteration_times_.size(); ++i) {
      sum += iteration_times_[i];
    }
    const auto n = static_cast<double>(iteration_times_.size() - skip);
    result_.mean_iteration_time = sum / n;
    const double global_batch =
        static_cast<double>(batch_per_gpu_) * static_cast<double>(gpus_.size()) *
        std::max(1, options_.gradient_accumulation_steps);
    result_.samples_per_second = global_batch / result_.mean_iteration_time;
  }
  // A full run checkpoints at every epoch boundary plus every
  // checkpoint_every_iters steps; capped simulations measured at least
  // the epoch-boundary ones, whose mean prices the rest.
  std::int64_t ckpts_simulated = epoch_;
  if (options_.checkpoint_every_iters > 0) {
    ckpts_simulated += iterations_done_ / options_.checkpoint_every_iters;
  }
  std::int64_t ckpts_full = epochs_;
  if (options_.checkpoint_every_iters > 0) {
    ckpts_full += result_.iterations_full / options_.checkpoint_every_iters;
  }
  const SimTime per_ckpt =
      result_.checkpoint_time / std::max<std::int64_t>(1, ckpts_simulated);
  result_.extrapolated_total_time =
      result_.mean_iteration_time * static_cast<double>(result_.iterations_full) +
      per_ckpt * static_cast<double>(ckpts_full);

  if (done_) {
    auto d = std::move(done_);
    done_ = nullptr;
    d(result_);
  }
}

}  // namespace composim::dl
