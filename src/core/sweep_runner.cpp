#include "core/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace composim::core {

int WorkerPool::resolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void WorkerPool::runAll(std::vector<Task> tasks, int jobs,
                        const std::function<void(std::size_t)>& onTaskDone) {
  const std::size_t n = tasks.size();
  if (n == 0) return;
  const std::size_t workers = std::min<std::size_t>(
      static_cast<std::size_t>(resolveJobs(jobs)), n);

  if (workers <= 1) {
    // The serial reference path: no threads, identical observable order.
    for (std::size_t i = 0; i < n; ++i) {
      tasks[i]();
      if (onTaskDone) onTaskDone(i);
    }
    return;
  }

  // Workers claim task indices from one shared cursor. The batch is fixed
  // up front (running tasks never enqueue more), so a worker whose claim
  // lands past the end is finished. Completions go into a ledger guarded
  // by done_mu, which the caller drains in submission order. Contention
  // is negligible at experiment granularity (milliseconds to minutes per
  // task), so a plain mutex keeps the pool obviously correct under TSan.
  std::atomic<std::size_t> cursor{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::vector<char> done(n, 0);

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = cursor++; i < n; i = cursor++) {
        tasks[i]();
        {
          std::lock_guard<std::mutex> lock(done_mu);
          done[i] = 1;
        }
        done_cv.notify_one();
      }
    });
  }

  // Drain completions in submission order on the calling thread; the
  // callback therefore observes exactly the serial emission order.
  std::size_t next_emit = 0;
  {
    std::unique_lock<std::mutex> lock(done_mu);
    while (next_emit < n) {
      done_cv.wait(lock, [&] { return done[next_emit] != 0; });
      while (next_emit < n && done[next_emit]) {
        const std::size_t i = next_emit++;
        if (onTaskDone) {
          lock.unlock();
          onTaskDone(i);
          lock.lock();
        }
      }
    }
  }
  for (auto& t : threads) t.join();
}

namespace {

/// Specs sharing one warm prefix: the prefix runs once (phase A), every
/// member forks its tail from the snapshot (phase B).
struct PrefixGroup {
  std::vector<std::size_t> members;  // indices into the sweep, in order
  std::unique_ptr<SimSnapshot> snapshot;
  Status status = Status::success();  // prefix outcome; !ok => members run cold
};

}  // namespace

SweepRunner::SweepRunner(SweepOptions options)
    : jobs_(WorkerPool::resolveJobs(options.jobs)),
      share_warm_prefixes_(options.share_warm_prefixes) {}

std::vector<SweepRun> SweepRunner::run(
    std::vector<ExperimentSpec> specs,
    const std::function<void(const SweepRun&)>& onReady) {
  const std::size_t n = specs.size();
  std::vector<SweepRun> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].spec = std::move(specs[i]);
  }

  // Group warm-prefix-applicable specs by prefix key (submission order
  // within each group). Only groups with two or more members fork —
  // warming a singleton's prefix separately would just run it twice.
  std::vector<PrefixGroup> groups;
  std::vector<PrefixGroup*> group_of(n, nullptr);
  if (share_warm_prefixes_) {
    std::map<std::string, std::size_t> by_key;
    for (std::size_t i = 0; i < n; ++i) {
      if (!warmPrefixApplicable(out[i].spec)) continue;
      const std::string key = warmPrefixKey(out[i].spec);
      auto it = by_key.find(key);
      if (it == by_key.end()) {
        it = by_key.emplace(key, groups.size()).first;
        groups.emplace_back();
      }
      groups[it->second].members.push_back(i);
    }
    // groups never reallocates after this point, so raw pointers are safe.
    for (PrefixGroup& g : groups) {
      if (g.members.size() < 2) {
        g.members.clear();
        continue;
      }
      for (const std::size_t i : g.members) group_of[i] = &g;
    }
  }

  // Phase A: one task per shared prefix. A barrier (not a pipeline) is
  // required here — a member's tail cannot start before its group's
  // snapshot exists, and members of one group may sit on many workers.
  std::vector<WorkerPool::Task> prefix_tasks;
  for (PrefixGroup& g : groups) {
    if (g.members.empty()) continue;
    PrefixGroup* group = &g;
    SweepRun* first = &out[g.members.front()];
    prefix_tasks.push_back([group, first] {
      try {
        // The donor only exists to be snapshotted, and fault activation
        // is deferred past the pause — so the donor's fault *schedule* is
        // irrelevant to the prefix (spares and attach noise shape
        // construction and stay). Strip it: one member's early fault
        // time must not fail the whole group's prefix; each member
        // checks its own schedule against the pause time in phase B.
        ExperimentOptions donor_options = first->spec.options;
        donor_options.faults.gpu_falloffs.clear();
        donor_options.faults.ecc_storms.clear();
        donor_options.faults.host_port_flaps.clear();
        WarmedExperiment warmed(first->spec.config,
                                dl::workload(first->spec.workload),
                                std::move(donor_options));
        group->snapshot = std::make_unique<SimSnapshot>(warmed.snapshot());
      } catch (const std::exception& e) {
        group->status = Status::internal(
            std::string("warm prefix for '") + first->spec.name +
            "' failed: " + e.what());
      } catch (...) {
        group->status =
            Status::internal(std::string("warm prefix for '") +
                             first->spec.name + "' failed: unknown exception");
      }
    });
  }
  if (!prefix_tasks.empty()) {
    WorkerPool::runAll(std::move(prefix_tasks), jobs_);
  }

  // Phase B: every spec runs — group members fork from their snapshot,
  // everyone else (and members of a failed prefix) runs whole.
  std::vector<WorkerPool::Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PrefixGroup* group = group_of[i];
    tasks.push_back([&out, group, i] {
      SweepRun& run = out[i];
      try {
        // A member may only fork when its own fault schedule (if any)
        // lands strictly inside the tail — the prefix was validated
        // against the group's FIRST member, and schedules differ across
        // a chaos sweep. The snapshot's clock is the pause boundary;
        // members injecting at or before it run cold instead.
        const bool faults_fit_tail =
            !run.spec.options.faults.enabled ||
            (group != nullptr && group->snapshot != nullptr &&
             earliestFaultTime(run.spec.options.faults) >
                 group->snapshot->sim.now);
        if (group != nullptr && group->status.ok && faults_fit_tail) {
          run.result = WarmedExperiment::resumeFromSnapshot(
              run.spec.config, dl::workload(run.spec.workload),
              run.spec.options, *group->snapshot);
        } else {
          run.result = runExperimentSpec(run.spec);
        }
        run.status = Status::success();
      } catch (const std::exception& e) {
        run.status = Status::internal(std::string("sweep run '") +
                                      run.spec.name + "' failed: " + e.what());
      } catch (...) {
        run.status = Status::internal(std::string("sweep run '") +
                                      run.spec.name +
                                      "' failed: unknown exception");
      }
    });
  }

  if (onReady) {
    WorkerPool::runAll(std::move(tasks), jobs_,
                             [&out, &onReady](std::size_t i) { onReady(out[i]); });
  } else {
    WorkerPool::runAll(std::move(tasks), jobs_);
  }
  return out;
}

}  // namespace composim::core
