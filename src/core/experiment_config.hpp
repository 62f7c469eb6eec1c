// composim: JSON-driven experiment suites.
//
// The appliance's workflow is configuration files (import/export, §II-B);
// experiments get the same treatment: a JSON document describes a list of
// (workload, configuration, trainer options) runs, so a measurement
// campaign is a reviewable artifact instead of a shell history.
//
//   {
//     "suite": "pcie-overhead",
//     "experiments": [
//       {"name": "bertL-local",  "workload": "BERT-L", "config": "localGPUs"},
//       {"name": "bertL-falcon", "workload": "BERT-L", "config": "falconGPUs",
//        "epochs": 1, "iterations_cap": 20, "precision": "fp16",
//        "strategy": "ddp", "sharded": false, "batch_per_gpu": 6,
//        "accumulation": 1}
//     ]
//   }
//
// "workload" is a dl::WorkloadRegistry reference: a registered name
// ("BERT-L") or an operator-graph file ("graph:<path>", dl/graph_ir/).
// The key "benchmark" is accepted as a legacy alias.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "falcon/json.hpp"

namespace composim::core {

struct ExperimentSpec {
  std::string name;
  std::string workload;  // registry name or "graph:<path>"
  SystemConfig config = SystemConfig::LocalGpus;
  ExperimentOptions options;  // options.workload mirrors `workload`
};

/// Parse a suite document; throws falcon::JsonError / std::invalid_argument
/// on unknown workloads, configurations or option values.
std::vector<ExperimentSpec> parseExperimentSuite(const falcon::Json& doc);

/// Resolve a Table III label ("localGPUs", ... , "allGPUs16").
SystemConfig configFromName(const std::string& name);

/// Resolve a workload reference (registry name or "graph:<path>") to its
/// model spec; throws std::invalid_argument when it does not resolve.
/// Deprecated: thin wrapper over dl::workload(), kept for the old
/// Table II-only call sites.
dl::ModelSpec benchmarkFromName(const std::string& name);

/// Parse a fault-schedule object (the "faults" key of an experiment, or a
/// standalone --faults document):
///
///   {"seed": 7, "poll_interval": 0.5, "spare_gpus": 2,
///    "attach_failure_rate": 0.3, "max_attach_retries": 6,
///    "attach_backoff_initial": 0.25, "attach_backoff_multiplier": 2.0,
///    "attach_backoff_max": 4.0, "attach_backoff_jitter": 0.2,
///    "attach_retry_budget": 30.0, "proactive_on_error_storm": true,
///    "gpu_falloffs":    [{"gpu": 5, "at": 30.0}],
///    "ecc_storms":      [{"gpu": 1, "at": 12.0, "errors": 500}],
///    "host_port_flaps": [{"port": 2, "at": 60.0, "downtime": 2.0}]}
///
/// Parsing a faults object always sets enabled = true.
///
/// The Status overload validates strictly: unknown keys (top-level or per
/// fault entry), wrong shapes and out-of-range values return
/// InvalidArgument whose detail lists the valid fault kinds, mirroring
/// WorkloadRegistry's NotFound-lists-known-names pattern. On error *out
/// is untouched.
Status parseFaultsConfig(const falcon::Json& doc, FaultsConfig* out);

/// Legacy throwing wrapper over the Status overload.
FaultsConfig parseFaultsConfig(const falcon::Json& doc);

/// Serialize a fault schedule back to the --faults JSON document with a
/// fixed key order (defaults included), so shrunk chaos reproducers are
/// byte-stable across runs. Round-trips exactly through
/// parseFaultsConfig.
falcon::Json faultsConfigToJson(const FaultsConfig& faults);

/// Earliest injection time in the schedule (+infinity when it has none).
SimTime earliestFaultTime(const FaultsConfig& faults);

/// Parse a metrics object (the "metrics" key of an experiment, or a
/// standalone --metrics document):
///
///   {"scrape_interval": 0.25,
///    "alerts": ["link_util_pct > 95 for 2s",
///               "ecc: ecc_errors_total rate > 0"]}
///
/// Alert rules are validated (telemetry::parseAlertRule) at parse time.
MetricsConfig parseMetricsConfig(const falcon::Json& doc);

/// Entry points for user-supplied suite, --faults and --metrics
/// documents: `spec` is inline JSON (text starting with '{') or a path to
/// a JSON file, parsed with parseExperimentSuite / parseFaultsConfig /
/// parseMetricsConfig. NotFound when the file cannot be opened;
/// InvalidArgument for every parse or validation failure, including
/// documents nested deeper than falcon::Json::kMaxDepth. On error *out is
/// untouched.
Status loadExperimentSuite(const std::string& spec,
                           std::vector<ExperimentSpec>* out);
Status loadFaultsConfig(const std::string& spec, FaultsConfig* out);
Status loadMetricsConfig(const std::string& spec, MetricsConfig* out);

/// Whether `spec` can run as a warm-prefix phased experiment: warm_prefix
/// is set and the pause boundary lands strictly inside the first epoch
/// and before the first periodic checkpoint — pausing ON a
/// checkpoint/epoch boundary would suppress the checkpoint the continuous
/// run takes there. Fault schedules are fork-eligible because activation
/// is deferred to the resume step; whether every injection time actually
/// lands inside the tail is only knowable once the prefix's pause time
/// exists, so that check happens at run time (WarmedExperiment throws /
/// the SweepRunner falls back to a cold run). Inapplicable specs run
/// continuously.
bool warmPrefixApplicable(const ExperimentSpec& spec);

/// Canonical key of everything a spec's warm prefix depends on: all of
/// (benchmark, config, options) EXCEPT the tail parameters
/// trainer.epochs and trainer.max_iterations_per_epoch. Two specs with
/// equal keys share byte-identical warm prefixes, so the SweepRunner
/// executes the prefix once and forks each variant's tail from the
/// snapshot. The spec name is deliberately excluded.
std::string warmPrefixKey(const ExperimentSpec& spec);

/// Run one parsed spec. Specs with options.warm_prefix set (and
/// warmPrefixApplicable) run phased — warm prefix, pause, resume — which
/// is the cold twin of a snapshot/fork run.
ExperimentResult runExperimentSpec(const ExperimentSpec& spec);

}  // namespace composim::core
