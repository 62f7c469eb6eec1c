// composim: distributed training execution engine.
//
// Simulates the paper's training loop (Section V-B / Fig 8): prefetched
// input batches are copied host-to-device, each GPU executes forward and
// backward macro-kernels, gradients synchronize through the collectives
// library, and the optimizer steps. Supported software-level knobs match
// Section V-C.4:
//
//   * Strategy::DataParallel        - PyTorch DP: master GPU broadcasts
//     parameters every iteration, gradients reduce back to the master,
//     which also runs the optimizer. No compute/comm overlap.
//   * Strategy::DistributedDataParallel - PyTorch DDP: bucketed gradient
//     all-reduce overlapping backward, per-rank optimizer.
//   * Precision::FP16 / FP32        - mixed precision halves gradient and
//     activation bytes and uses the tensor-core rate.
//   * options.sharded               - ZeRO/FSDP-style state sharding:
//     optimizer+gradient+parameter state divided across ranks, enabling
//     larger batch sizes (BERT-large: 6 -> 10 in the paper).
//
// Checkpoints write the FP32 model through host memory to storage at every
// epoch boundary, producing the periodic GPU-utilization dips of Fig 9.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "collectives/communicator.hpp"
#include "devices/gpu.hpp"
#include "devices/host_cpu.hpp"
#include "devices/storage.hpp"
#include "dl/dataset.hpp"
#include "dl/model.hpp"
#include "dl/pipeline.hpp"
#include "sim/random.hpp"

namespace composim::dl {

enum class Strategy { DataParallel, DistributedDataParallel };

const char* toString(Strategy s);

struct TrainerOptions {
  Strategy strategy = Strategy::DistributedDataParallel;
  devices::Precision precision = devices::Precision::FP16;
  bool sharded = false;
  int batch_per_gpu = 0;             // 0 = model.paper_batch_per_gpu
  int epochs = 0;                    // 0 = model.paper_epochs
  /// DDP gradient accumulation (no_sync micro-steps): each iteration runs
  /// this many forward+backward passes and synchronizes once, multiplying
  /// the effective batch without extra GPU memory.
  int gradient_accumulation_steps = 1;
  /// Cap simulated iterations per epoch (0 = full). Totals are
  /// extrapolated from the measured steady-state iteration time.
  int max_iterations_per_epoch = 0;
  int gradient_buckets = 6;          // DDP all-reduce coalescing
  /// Also checkpoint every N iterations (HuggingFace-style save_steps);
  /// 0 disables. Counted in the full-run extrapolation even when the
  /// simulated epoch is capped below N iterations.
  std::int64_t checkpoint_every_iters = 500;
  PipelineOptions pipeline;
  std::uint64_t seed = 42;
};

/// The per-GPU batch a trainer runs: options.batch_per_gpu, or the
/// model's paper batch when unset.
int effectiveBatchPerGpu(const ModelSpec& model, const TrainerOptions& options);

/// Iterations per epoch on `gpus` ranks. `full` is ceil(train_samples /
/// global batch), with global batch = per-GPU batch x gpus x accumulation
/// steps; `simulated` is `full` capped by max_iterations_per_epoch.
struct EpochIterations {
  std::int64_t full = 0;
  std::int64_t simulated = 0;
};
EpochIterations epochIterations(const ModelSpec& model,
                                const DatasetSpec& dataset,
                                const TrainerOptions& options,
                                std::size_t gpus);

struct TrainingResult {
  bool completed = false;
  std::string error;                  // set when aborted (e.g. GPU OOM)
  int epochs = 0;
  std::int64_t iterations_run = 0;     // simulated iterations
  std::int64_t iterations_full = 0;    // a full training run's iterations
  SimTime simulated_time = 0.0;        // for the simulated iterations
  SimTime extrapolated_total_time = 0.0;  // scaled to the full run
  SimTime mean_iteration_time = 0.0;   // steady state (warmup skipped)
  double samples_per_second = 0.0;     // aggregate, steady state
  SimTime data_stall_time = 0.0;
  SimTime checkpoint_time = 0.0;
  Bytes checkpoint_bytes = 0;
  // Recovery accounting (requestRestore): checkpoint rollbacks performed,
  // completed iterations discarded to the replay window, and total time
  // spent in restore I/O (storage read + parameter broadcast).
  int restores = 0;
  std::int64_t lost_iterations = 0;
  SimTime restore_time = 0.0;
  std::vector<double> loss_curve;      // one entry per simulated iteration
};

class Trainer {
 public:
  Trainer(Simulator& sim, fabric::FlowNetwork& net, fabric::Topology& topo,
          std::vector<devices::Gpu*> gpus, devices::HostCpu& cpu,
          fabric::NodeId hostMemory, devices::StorageDevice& storage,
          ModelSpec model, DatasetSpec dataset, TrainerOptions options = {});
  ~Trainer();

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// Bytes of GPU memory one rank needs at the given per-GPU batch size.
  Bytes perGpuMemoryNeeded(int batchPerGpu) const;
  /// Largest per-GPU batch that fits in GPU memory (0 if even batch 1
  /// does not fit).
  int maxFeasibleBatchPerGpu() const;

  /// Start training; `done` fires with the result. GPU memory is
  /// allocated up front — infeasible batch sizes abort with an error
  /// result rather than throwing.
  void start(std::function<void(const TrainingResult&)> done);

  /// Arrange for training to pause after exactly `iterations` completed
  /// iterations (the warm-prefix boundary). Must be called before start().
  /// When the boundary is reached the trainer stops scheduling new work
  /// and `onPaused` fires; once every in-flight event drains the whole
  /// stack is at a quiescent point and can be snapshotted. Training
  /// continues only when resumeTraining() is called. The caller must pick
  /// a boundary that falls strictly inside an epoch and before any
  /// iteration-count checkpoint (see core::warmPrefixApplicable) so the
  /// paused continuation is exactly beginIteration(). The pause fires
  /// once: a later crossing of the same count (a restore rewinding below
  /// it) trains on.
  void pauseAfter(std::int64_t iterations, std::function<void()> onPaused);

  bool paused() const { return paused_; }

  /// Continue a paused run (cold path) or a restored one (fork path):
  /// identical call in both, so the tails stay byte-identical.
  void resumeTraining();

  /// Elastic re-composition (§III-B.3, devices re-allocated on the fly):
  /// request that training continue on `gpus` from the next epoch
  /// boundary. The swap happens after that epoch's checkpoint — model
  /// state travels through storage exactly as a real resize would. Keeps
  /// the per-GPU batch; the global batch (and iterations per epoch)
  /// change with the group size. Fails (returns false) if the new group
  /// is empty or training already finished.
  bool requestResize(std::vector<devices::Gpu*> gpus);

  /// Failure recovery (the composable test bed's raison d'être): abandon
  /// the current iteration immediately, rewind to the last checkpoint, and
  /// resume on `gpus` — the old gang with a spare swapped in, or a smaller
  /// gang for graceful degradation. Unlike requestResize this does NOT
  /// wait for an epoch boundary: in-flight kernels, flows and collectives
  /// are orphaned (their completions become no-ops), model state is
  /// re-read from storage over the fabric and broadcast to every new rank,
  /// and iterations completed since the checkpoint are replayed (counted
  /// in result.lost_iterations). `onResumed` fires when the first
  /// post-restore iteration begins. Fails (returns false) if training has
  /// not started, already finished, or `gpus` is empty.
  bool requestRestore(std::vector<devices::Gpu*> gpus,
                      std::function<void()> onResumed = nullptr);

  /// Abort a running training job with an honest error result: in-flight
  /// work is orphaned exactly as in requestRestore and the done callback
  /// fires with completed = false and `reason` as the error. The escape
  /// hatch for unrecoverable situations (e.g. every gang GPU lost with no
  /// spares) where hanging forever would be the alternative. Returns
  /// false if training has not started or already finished.
  bool abortTraining(const std::string& reason);

  /// Observer hooks for external telemetry (the metrics collectors): fired
  /// with the wall time of every completed iteration / durable checkpoint.
  /// The observer must outlive the run; pass nullptr to detach.
  void setIterationObserver(std::function<void(SimTime)> fn) {
    iteration_observer_ = std::move(fn);
  }
  void setCheckpointObserver(std::function<void(SimTime)> fn) {
    checkpoint_observer_ = std::move(fn);
  }

  /// Deterministic run state at a warm-prefix pause. Everything the tail
  /// depends on is plain data by construction (the pause point drains all
  /// in-flight events, so there are no closures to capture). The loss
  /// curve is stored as its raw noise draws: the curve itself mixes in the
  /// *total* planned iterations, which is a tail parameter, so a fork with
  /// different epochs recomputes the curve bit-identically from the same
  /// draws (see restoreRun).
  struct State {
    Rng::State rng;
    int micro_step = 0;
    int epoch = 0;
    std::int64_t iter_in_epoch = 0;
    std::int64_t iterations_done = 0;
    // Replay window: what the last durable checkpoint captured. Zero-state
    // (fresh initialization) counts as a checkpoint, so a restore before
    // the first write replays from iteration 0.
    int ckpt_epoch = 0;
    std::int64_t ckpt_iter_in_epoch = 0;
    std::int64_t ckpt_iters_done = 0;
    bool input_ready = false;  // H2D for the current iteration done
    SimTime backward_done_time = 0.0;
    Bytes host_base_memory = 0;
    SimTime iteration_start = 0.0;
    std::vector<SimTime> iteration_times;
    Bytes allocated_per_gpu = 0;
    SimTime run_start = 0.0;
    SimTime checkpoint_time = 0.0;
    Bytes checkpoint_bytes = 0;
    int restores = 0;
    std::int64_t lost_iterations = 0;
    SimTime restore_time = 0.0;
    /// Per-iteration loss noise draws, kept alongside the loss curve so a
    /// fork can recompute the curve under a different planned total.
    std::vector<double> loss_noise;
  };

  /// Capture the paused run state. Throws std::logic_error unless the
  /// trainer is paused at a warm-prefix boundary.
  State state() const;

  /// Adopt a captured prefix on a freshly constructed trainer (never
  /// started): the GPU/host memory the prefix allocated is already
  /// accounted by the device-level restores, so this re-binds the
  /// bookkeeping without re-allocating. Leaves the trainer paused;
  /// resumeTraining() continues the tail. `done` fires with the final
  /// result exactly as start()'s callback would.
  void restoreRun(const State& st, std::function<void(const TrainingResult&)> done);

  int batchPerGpu() const { return batch_per_gpu_; }
  int epochs() const { return epochs_; }
  std::int64_t iterationsPerEpochFull() const;
  std::int64_t iterationsCompleted() const { return st_.iterations_done; }
  int currentEpoch() const { return st_.epoch; }
  bool checkpointing() const { return checkpointing_; }
  int resizeCount() const { return resize_count_; }
  int restoreCount() const { return st_.restores; }
  std::int64_t lostIterations() const { return st_.lost_iterations; }
  bool finished() const { return finished_; }
  std::size_t groupSize() const { return gpus_.size(); }
  const std::vector<devices::Gpu*>& gpuGroup() const { return gpus_; }
  const ModelSpec& model() const { return model_; }
  collectives::Communicator& communicator() { return *comm_; }
  DataPipeline& pipeline() { return *pipeline_; }

 private:
  struct BucketPlan {
    Bytes bytes = 0;
    int last_group = 0;  // backward group index that completes the bucket
  };

  // Profiling: the trainer is a single sequential actor, so its phase
  // spans nest on one track named after the rank-0 GPU node.
  void beginTrackSpan(const char* name, const ProfileArgs& args = {});
  void endTrackSpan(const ProfileArgs& args = {});

  void beginIteration();
  void startMicroStep();
  void prefetchNextInput();
  void runForward(int group);
  void runBackwardDdp(int group);
  void runDataParallelIteration();
  void onComputeAndCommDone();
  void optimizerStep(std::function<void()> then);
  void endIteration();
  void checkpoint(std::function<void()> then);
  void applyPendingResize();
  /// Rebuild communicator + data pipeline for the current gpus_ (shared by
  /// resize and restore); the old ones are retired, not destroyed, because
  /// in-flight callbacks still reference them.
  void recomposeGang();
  void finish(bool completed, const std::string& error);
  /// Loss after `iteration` (1-based) iterations with noise draw `noise`.
  /// It depends on the planned total, a tail parameter under warm-prefix
  /// forking, so a fork re-derives the curve from the retained draws.
  double lossAt(std::int64_t iteration, double noise) const;

  Bytes gradBytes() const { return model_.gradientBytes(options_.precision); }
  Bytes h2dBytesPerGpu() const;

  Simulator& sim_;
  fabric::FlowNetwork& net_;
  fabric::Topology& topo_;
  std::vector<devices::Gpu*> gpus_;
  devices::HostCpu& cpu_;
  fabric::NodeId host_memory_;
  devices::StorageDevice& storage_;
  ModelSpec model_;
  DatasetSpec dataset_;
  TrainerOptions options_;

  std::string track_;  // profiler track, derived from the rank-0 GPU node
  /// Profiler keys, interned once per sink table (ProfileKeyCache).
  struct ProfileKeys {
    ProfileKeys() = default;
    ProfileKeys(ProfileSink& sink, const std::string& track)
        : track(sink.intern(track)),
          category(sink.intern("trainer")),
          prefetch(sink.intern("prefetch")),
          h2d(sink.intern("h2d")) {}
    ProfileKey track = kNoProfileKey;
    ProfileKey category = kNoProfileKey;
    ProfileKey prefetch = kNoProfileKey;
    ProfileKey h2d = kNoProfileKey;
  };
  ProfileKeyCache<ProfileKeys> profile_keys_;
  std::unique_ptr<collectives::Communicator> comm_;
  std::unique_ptr<DataPipeline> pipeline_;
  std::vector<ModelSpec::MacroGroup> groups_;
  std::vector<BucketPlan> buckets_;
  Rng rng_;

  int batch_per_gpu_ = 0;
  int epochs_ = 0;
  std::int64_t iters_per_epoch_sim_ = 0;

  // run state
  /// Everything a warm-prefix fork carries. Its rng words are stale here:
  /// rng_ holds the live stream and state() fills them in.
  State st_;
  std::function<void(const TrainingResult&)> done_;
  /// One entry per simulated iteration; restoreRun re-derives it from
  /// st_.loss_noise.
  std::vector<double> loss_curve_;
  std::vector<devices::Gpu*> pending_resize_;
  bool resize_requested_ = false;
  int resize_count_ = 0;
  bool finished_ = false;
  /// Stopped pipelines from before a resize; kept alive until the trainer
  /// dies because their in-flight storage callbacks reference them.
  std::vector<std::unique_ptr<DataPipeline>> retired_pipelines_;
  /// Communicators from before a restore, kept alive for the same reason:
  /// orphaned collective flows still call back into them.
  std::vector<std::unique_ptr<collectives::Communicator>> retired_comms_;
  bool checkpointing_ = false;
  bool started_ = false;
  // Warm-prefix pause: when armed, the end of iteration `pause_at_` stops
  // the training loop instead of beginning the next iteration. Disarmed
  // (0) once it fires.
  std::int64_t pause_at_ = 0;
  std::function<void()> on_paused_;
  bool paused_ = false;
  /// Continuation generation: bumped by requestRestore so every callback
  /// captured before the restore (kernels, flows, collectives, scheduled
  /// events) returns without touching trainer state.
  std::uint64_t gen_ = 0;
  /// Open spans on track_ (so a mid-iteration restore can close them all
  /// and keep the trace B/E-balanced).
  int track_depth_ = 0;
  std::function<void()> input_waiter_;
  bool backward_done_ = false;
  int pending_allreduce_ = 0;
  std::function<void(SimTime)> iteration_observer_;
  std::function<void(SimTime)> checkpoint_observer_;
};

}  // namespace composim::dl
