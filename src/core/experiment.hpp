// composim: one benchmark x configuration measurement run.
//
// Reproduces the paper's experiment harness: build the system for a
// Table III configuration, train the benchmark with the requested
// software options, sample the system-level metrics the paper plots
// (GPU util, GPU memory util, memory-access time, CPU util, host memory,
// Falcon PCIe traffic), and summarize.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/composable_system.hpp"
#include "core/recovery_orchestrator.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"
#include "fabric/failures.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/metrics_pipeline.hpp"
#include "telemetry/profiler.hpp"

namespace composim::core {

/// Fault schedule for an experiment: which components fail, when, and how
/// much recovery capacity (spares, health polling) the run has. Indices
/// refer to the system's Falcon GPUs in install order (drawer 0 slots
/// 0-3, then drawer 1 slots 0-3); ports are host-port indices (0 = H1).
struct FaultsConfig {
  bool enabled = false;
  std::uint64_t seed = 99;                 // fault injector + attach noise
  SimTime health_poll_interval = 0.5;      // BMC telemetry poll cadence
  std::uint64_t error_storm_threshold = 100;
  int spare_gpus = 0;                      // spares pre-installed, unassigned
  double attach_failure_rate = 0.0;        // transient attach failures
  RecoveryPolicy policy;

  struct GpuFalloff {
    int gpu_index = 0;  // falcon GPU install order
    SimTime at = 0.0;
  };
  std::vector<GpuFalloff> gpu_falloffs;

  struct EccStorm {
    int gpu_index = 0;
    SimTime at = 0.0;
    std::uint64_t errors = 500;
  };
  std::vector<EccStorm> ecc_storms;

  struct HostPortFlap {
    int port = 0;
    SimTime at = 0.0;
    SimTime downtime = 1.0;
  };
  std::vector<HostPortFlap> host_port_flaps;
};

/// Earliest injection time in the schedule (+infinity when it has none).
SimTime earliestFaultTime(const FaultsConfig& faults);

/// What the recovery subsystem did during a faulted run.
struct RecoverySummary {
  bool enabled = false;
  std::uint64_t faults_injected = 0;
  std::uint64_t detections = 0;
  std::uint64_t reattach_retries = 0;
  int degradations = 0;
  std::size_t final_gang_size = 0;
  SimTime mean_mttr = 0.0;  // detection -> training resumed
  /// Where the recovery state machine ended up (chaos oracles key on this).
  RecoveryTerminalState terminal_state = RecoveryTerminalState::Idle;
  /// Slots quarantined during the run, in quarantine order.
  std::vector<falcon::SlotId> quarantined_slots;
  /// Fabric flow conservation over the whole run: every flow ever started
  /// must end completed or failed, with none left in flight at the end.
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_failed = 0;
  std::size_t flows_active_at_end = 0;
  std::vector<RecoveryIncident> incidents;
  std::vector<fabric::FaultRecord> fault_history;
  std::vector<falcon::FaultEvent> detections_log;
};

/// Metrics-pipeline knobs. The pipeline itself always runs (the summary
/// means come out of it); this controls its cadence and alerting.
struct MetricsConfig {
  /// Scrape cadence; 0 = follow ExperimentOptions::sample_interval.
  SimTime scrape_interval = 0.0;
  /// SLO alert rules in the compact telemetry::parseAlertRule syntax,
  /// e.g. "link_util_pct > 95 for 2s" or "ecc: ecc_errors_total rate > 0".
  /// Firing/resolved transitions also land in the BMC event log.
  std::vector<std::string> alerts;
};

struct ExperimentOptions {
  /// Default trainer.max_iterations_per_epoch: capping keeps runs fast;
  /// totals are extrapolated from steady-state iteration time (see
  /// DESIGN.md). Set trainer.max_iterations_per_epoch = 0 for a full run.
  static constexpr int kDefaultIterationsCap = 30;

  ExperimentOptions() { trainer.max_iterations_per_epoch = kDefaultIterationsCap; }

  /// Workload reference: a dl::WorkloadRegistry name ("ResNet-50") or an
  /// operator-graph file ("graph:examples/graphs/resnet50.graph.json").
  /// Resolved by Experiment::run(config, options) / runExperimentSpec;
  /// ignored by the overloads that take an explicit ModelSpec.
  std::string workload;
  dl::TrainerOptions trainer;
  SimTime sample_interval = 0.25;  // telemetry cadence (simulated seconds)
  /// Metrics pipeline: scrape cadence override + SLO alert rules.
  MetricsConfig metrics;
  /// Record a span/counter profile of the run (result.profiler holds the
  /// finalized trace, exportable as Chrome trace_event JSON).
  bool trace = false;
  /// Run the bottleneck analyzer over the trace after the run finishes
  /// (result.analysis: per-iteration attribution buckets, critical paths,
  /// link contention — DESIGN.md §17). Implies trace.
  bool analysis = false;
  /// Fault schedule + recovery capacity; faults.enabled = false runs the
  /// experiment exactly as before (no monitor, no orchestrator).
  FaultsConfig faults;
  /// Liveness watchdog: if > 0 and the simulation is still live past this
  /// simulated time without the trainer finishing, the run throws
  /// std::runtime_error with a "watchdog:" detail instead of spinning on
  /// periodic events forever. Chaos campaigns rely on this to turn a hung
  /// gang into a typed liveness failure. 0 = no watchdog (legacy).
  SimTime watchdog = 0.0;
  /// Warm-prefix boundary: pause after this many completed training
  /// iterations so the whole stack can be snapshotted and forked (0 =
  /// off, run continuously). Only meaningful when warmPrefixApplicable()
  /// holds for the spec; see DESIGN.md §14.
  std::int64_t warm_prefix = 0;
};

/// The work a run cost the simulator, read from counters the layers
/// already keep. Always filled, and deterministic: a forked tail reports
/// the counts of the cold run it replays. Kept out of the manifest and
/// every export, so their bytes do not depend on how the work is done.
struct WorkCounters {
  std::uint64_t events = 0;            // simulator events executed
  std::uint64_t flows = 0;             // fabric flows started
  std::uint64_t recomputes = 0;        // max-min rate recomputations
  std::uint64_t solves = 0;            // connected-component solves
  std::uint64_t kernels = 0;           // kernels launched on training GPUs
  std::uint64_t collective_ops = 0;    // completed, current communicator
  std::uint64_t profiler_records = 0;  // 0 when untraced
};

struct ExperimentResult {
  SystemConfig config = SystemConfig::LocalGpus;
  std::string benchmark;
  dl::TrainingResult training;

  // Means over the steady-state window, in the paper's units.
  double gpu_util_pct = 0.0;
  double gpu_mem_util_pct = 0.0;
  double gpu_mem_access_pct = 0.0;
  double cpu_util_pct = 0.0;
  double host_mem_util_pct = 0.0;
  double falcon_pcie_gbs = 0.0;  // aggregate over falcon GPU ports

  /// The run's metrics pipeline, finalized: labeled registry (Prometheus
  /// text exposition), scraped time series (JSONL dump, Fig 9 strip
  /// charts), and the alert log.
  std::shared_ptr<telemetry::MetricsPipeline> metrics;

  /// Finalized profiler when options.trace was set (null otherwise).
  std::shared_ptr<telemetry::Profiler> profiler;

  /// Bottleneck attribution when options.analysis was set (null
  /// otherwise): bucket decomposition, critical paths, link contention.
  std::shared_ptr<telemetry::analysis::RunAnalysis> analysis;

  /// Recovery accounting when options.faults.enabled was set.
  RecoverySummary recovery;

  WorkCounters work;
};

class Experiment {
 public:
  /// Run `model` on `config`. Blocking: advances the simulation to
  /// completion.
  static ExperimentResult run(SystemConfig config, const dl::ModelSpec& model,
                              ExperimentOptions options = {});

  /// Run options.workload (registry name or "graph:<path>") on `config`.
  /// Throws std::invalid_argument when the reference does not resolve —
  /// use dl::WorkloadRegistry::instance().resolve() first for a Status.
  static ExperimentResult run(SystemConfig config, ExperimentOptions options);

  /// Convenience: percentage change of extrapolated training time versus a
  /// baseline result (positive = slower than baseline).
  static double trainingTimeChangePct(const ExperimentResult& result,
                                      const ExperimentResult& baseline);
};

/// Full deterministic state of a warmed experiment stack at the
/// warm-prefix quiescent point: the event queue is drained, so every
/// subsystem's state is plain data (no closures). Copyable and cheap to
/// move between threads — the SweepRunner captures one per unique prefix
/// and hands it to every forked tail. DESIGN.md §14 documents the
/// copy-vs-serialize decision per subsystem.
struct SimSnapshot {
  Simulator::State sim;
  fabric::Topology::State topology;
  fabric::FlowNetwork::State network;
  std::vector<devices::Gpu::State> local_gpus;   // install order
  std::vector<devices::Gpu::State> falcon_gpus;  // install order
  devices::HostCpu::State cpu;
  devices::StorageDevice::State local_nvme;
  devices::StorageDevice::State falcon_nvme;
  devices::StorageDevice::State boot_ssd;
  falcon::Bmc::State bmc;
  collectives::Communicator::State communicator;
  dl::DataPipeline::State pipeline;
  dl::Trainer::State trainer;
  telemetry::MetricsRegistry::State registry;
  telemetry::MetricsScraper::State scraper;
  telemetry::AlertEngine::State alerts;
  bool traced = false;
  telemetry::Profiler::State profiler;  // meaningful only when traced
};

/// A warmed experiment: the full stack built and run through the first
/// options.warm_prefix iterations, then paused at the quiescent point.
/// From here the run either resumes in place (finish(), the "cold" phased
/// path) or is captured (snapshot()) and replayed into any number of
/// fresh stacks (resumeFromSnapshot(), the fork path). Cold and forked
/// tails execute the identical resume sequence, which is what makes them
/// byte-identical.
class WarmedExperiment {
 public:
  /// Build the stack and run the warm prefix. Fault schedules are
  /// supported as long as every injection time lies strictly after the
  /// pause boundary: fault activation is deferred to the resume step, so
  /// the prefix itself is fault-free and snapshot-safe. Throws
  /// std::runtime_error when the run finishes before reaching the pause
  /// boundary or when a fault time falls inside the prefix (callers fall
  /// back to a cold run), std::invalid_argument when
  /// options.warm_prefix <= 0.
  WarmedExperiment(SystemConfig config, const dl::ModelSpec& model,
                   ExperimentOptions options);
  ~WarmedExperiment();

  WarmedExperiment(const WarmedExperiment&) = delete;
  WarmedExperiment& operator=(const WarmedExperiment&) = delete;

  /// Capture the paused stack. May be called once or many times; the
  /// snapshot is independent of this object's lifetime.
  SimSnapshot snapshot() const;

  /// Resume this stack to completion (consumes the object's run).
  ExperimentResult finish();

  /// Build a fresh stack for (config, model, options), restore `snap`
  /// into it and resume to completion. `options` may differ from the
  /// donor's only in tail parameters (trainer.epochs,
  /// trainer.max_iterations_per_epoch) — everything else must match the
  /// donor or the restore throws.
  static ExperimentResult resumeFromSnapshot(SystemConfig config,
                                             const dl::ModelSpec& model,
                                             ExperimentOptions options,
                                             const SimSnapshot& snap);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace composim::core
