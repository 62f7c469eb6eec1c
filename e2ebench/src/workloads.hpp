// e2ebench: the timed workloads and the traced per-layer ledger.
//
// Both entry points return a Report: the experiments attempted and failed,
// the failed output checks, and the metrics with their units. main.cpp
// prints it as the benchmark's result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/composable_system.hpp"
#include "dl/model.hpp"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value only (e.g. the percentile)
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Recorded per-experiment digests for (workload, seed); empty = none.
  std::vector<std::string> expected_digests;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::vector<Metric> metrics;
  std::vector<std::string> lines;     // human-readable summary
  std::vector<std::string> digests;   // first-pass per-experiment digests

  bool correct() const { return failures.empty() && failed == 0; }
  /// Count one experiment; `why` non-empty marks it failed.
  void tally(const std::string& why);
};

/// Host time of the set-up a user pays before the first experiment:
/// resolving every workload reference through the registry (graph files
/// go through the graph-IR loader) and building the first
/// ComposableSystem. Repeated `reps` times; the median is reported.
struct Setup {
  std::vector<composim::dl::ModelSpec> models;  // in `refs` order
  double setup_s = 0.0;
  double reference_ms = 0.0;  // host-speed reference timed right after
};
Setup timedSetup(const std::vector<std::string>& refs,
                 composim::core::SystemConfig first, int reps);

/// Untraced timed run of one workload: every end-to-end metric.
Report runWorkload(const RunArgs& args);

/// One untimed pass of the workload, for recording its digests.
Report digestPass(const RunArgs& args);

/// Traced run: per-layer metrics from benchmark-side spans and counters
/// around the public calls into each module, for all three workloads
/// (args.workload's ledger is repeated for the rest of args.seconds).
/// Spans are written to `spans_path` when the run ends (empty = don't).
Report runLedger(const RunArgs& args, const std::string& spans_path);

/// Peak resident set of this process, MiB.
double peakRssMb();

}  // namespace e2ebench
