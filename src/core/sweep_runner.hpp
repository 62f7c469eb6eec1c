// composim: parallel sweep engine.
//
// The paper's value is its *sweep* of configurations (per-benchmark x
// per-topology x per-GPU-count); replaying it one experiment at a time
// wastes every host core but one. Experiments are embarrassingly
// parallel — each run owns a private Simulator/Topology/FlowNetwork/
// Trainer stack and shares nothing — so a worker pool fans them
// out across threads while keeping the *observable* output bit-identical
// to a serial replay:
//
//   * results land in a submission-ordered vector, never a
//     completion-ordered one;
//   * all aggregation (RunTracker rows, trace-file writes, stdout) runs
//     on the calling thread, in submission order, via the in-order
//     completion callback — workers compute, they never emit;
//   * each run's simulation is the same single-threaded deterministic
//     event loop it always was, so the numbers themselves cannot change.
//
// `jobs == 1` degenerates to the old serial loop (no threads spawned),
// which is what makes "serial vs parallel output is byte-identical" a
// testable property rather than a hope.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.hpp"
#include "core/experiment_config.hpp"

namespace composim::core {

/// Fixed-size thread pool for a one-shot batch of independent tasks.
/// Workers claim tasks in submission order from one shared cursor, so
/// an idle worker always takes the next unclaimed task and long tasks
/// never queue behind one another on a busy worker.
class WorkerPool {
 public:
  using Task = std::function<void()>;

  /// Resolve a --jobs value: <= 0 selects hardware_concurrency()
  /// (minimum 1 when the runtime reports 0 cores).
  static int resolveJobs(int jobs);

  /// Run every task to completion. `onTaskDone(i)`, when provided, is
  /// invoked on the *calling* thread in submission order: task i's
  /// callback fires only once tasks 0..i have all finished, as soon as
  /// that prefix is complete (streaming, not post-barrier). With
  /// jobs == 1 (or a single task) everything runs inline on the caller
  /// and no threads are spawned.
  ///
  /// Tasks must not throw — wrap fallible work and capture a Status in
  /// the task's own result slot (see SweepRunner::run). A task that
  /// escapes with an exception terminates the process, same as any
  /// unhandled exception on a std::thread.
  static void runAll(std::vector<Task> tasks, int jobs,
                     const std::function<void(std::size_t)>& onTaskDone = {});
};

/// Fan `count` independent jobs out across the pool and collect their
/// return values in submission order. `fn(i)` is called at most once per
/// index, possibly concurrently with other indices — it must not touch
/// mutable state shared across indices (build the full per-run stack
/// inside). The result type must be default-constructible and movable.
template <typename Fn>
auto sweepOrdered(int jobs, std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using R = decltype(fn(std::size_t{}));
  std::vector<R> out(count);
  std::vector<WorkerPool::Task> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.push_back([&out, &fn, i] { out[i] = fn(i); });
  }
  WorkerPool::runAll(std::move(tasks), jobs);
  return out;
}

struct SweepOptions {
  /// Worker threads; <= 0 selects hardware_concurrency().
  int jobs = 0;
  /// Execute each distinct warm prefix once and fork every variant's tail
  /// from the snapshot (DESIGN.md §14). Only groups of two or more specs
  /// with equal warmPrefixKey() fork; singletons and inapplicable specs
  /// run whole. Disable to force every spec to run its own prefix (the
  /// cold reference arm of the fork-vs-cold benchmark).
  bool share_warm_prefixes = true;
};

/// One sweep entry's outcome, in submission order.
struct SweepRun {
  ExperimentSpec spec;
  /// !ok() when the run threw; `result` is then default-constructed and
  /// status.detail carries the exception text. Sibling runs are
  /// unaffected by a failed spec.
  Status status;
  ExperimentResult result;
};

/// Runs a suite of independent experiment specs across worker threads.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  int jobs() const { return jobs_; }

  /// Run every spec; returns outcomes in submission order. `onReady`,
  /// when provided, is invoked on the calling thread in submission order
  /// as each run's prefix completes — the place for printing, trace-file
  /// writes, and RunTracker aggregation (never done concurrently).
  ///
  /// When share_warm_prefixes is on, execution is two-phase: phase A runs
  /// each distinct warm prefix once (across workers) and snapshots it at
  /// the pause boundary; phase B forks every variant's tail from its
  /// group's snapshot, again across workers, streaming onReady in
  /// submission order. A failed prefix fails no one: its members fall
  /// back to whole cold runs in phase B. Forked outputs are
  /// byte-identical to cold phased runs — same manifests, traces and
  /// exports — so sharing is purely a wall-clock optimization.
  std::vector<SweepRun> run(
      std::vector<ExperimentSpec> specs,
      const std::function<void(const SweepRun&)>& onReady = {});

 private:
  int jobs_;
  bool share_warm_prefixes_;
};

}  // namespace composim::core
