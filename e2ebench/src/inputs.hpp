// e2ebench: the benchmark's inputs. Everything the simulator receives —
// workload references, experiment options, fault schedules — is generated
// here as a pure function of the benchmark seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment_config.hpp"

namespace e2ebench {

inline constexpr const char* kMatrix = "matrix_untraced";
inline constexpr const char* kAnalyze = "analyze_export";
inline constexpr const char* kFaultSweep = "fault_fork_sweep";

/// The three workloads in the order the traced ledger reports them.
const std::vector<std::string>& workloadNames();

/// "graph:examples/graphs/<slug>.graph.json", relative to the repo root.
std::string graphRef(const std::string& slug);

// --- matrix_untraced: Table II zoo x Table III configs ---------------------

inline constexpr int kMatrixIterations = 300;

/// The five Table II graphs, paper order (MobileNetV2 ... BERT-L).
std::vector<std::string> tableIIRefs();
/// Index of BERT-L in tableIIRefs() (the Fig 11 ratio check).
inline constexpr std::size_t kBertLargeIndex = 4;
/// DDP/FP16 defaults, one epoch capped at kMatrixIterations, untraced.
composim::core::ExperimentOptions matrixOptions(std::uint64_t seed);

// --- analyze_export: the README's BERT-L local-vs-falcon --analyze pair ----

inline constexpr int kAnalyzeIterations = 10;

std::vector<composim::core::SystemConfig> analyzeConfigs();
/// run_suite --workload's pair options with analysis on (or, for the
/// traced ledger's baseline, fully untraced).
composim::core::ExperimentOptions analyzeOptions(std::uint64_t seed,
                                                 bool analysis);

// --- fault_fork_sweep: 8 faulted tails forked from one warm prefix --------

inline constexpr int kSweepSpecs = 8;
inline constexpr std::int64_t kWarmPrefix = 150;
inline constexpr int kSweepIterations = 200;
/// Simulated-time liveness bound on every spec (a hung gang becomes a
/// counted failure instead of a stalled benchmark).
inline constexpr double kWatchdogS = 400.0;
inline constexpr composim::core::SystemConfig kSweepConfig =
    composim::core::SystemConfig::FalconGpus;

/// Options every sweep spec shares (warm prefix, watchdog, spares drawn
/// from the seed) with an empty fault schedule: the warm-prefix donor.
composim::core::ExperimentOptions sweepBaseOptions(std::uint64_t seed);

/// Simulated time of the warm-prefix boundary: runs one WarmedExperiment
/// prefix of the sweep's donor.
double measureBoundary(const composim::dl::ModelSpec& model,
                       std::uint64_t seed);

/// The suite: kSweepSpecs specs sharing one prefix, each tail carrying one
/// seeded fault (GPU falloff, ECC storm or host-port flap) timed strictly
/// after `boundary`.
std::vector<composim::core::ExperimentSpec> faultSuite(std::uint64_t seed,
                                                       double boundary);

}  // namespace e2ebench
