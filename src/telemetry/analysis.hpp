// composim: critical-path extraction + automated bottleneck attribution.
//
// Post-mortem analysis over a finalized Profiler trace. The analyzer
// replays the recorded spans/counters (no JSON round-trip) and produces,
// per training iteration:
//
//  * a time attribution that decomposes the iteration wall time into five
//    buckets — compute, overlapped comm, exposed comm, fabric contention
//    and stall — that sum back to the wall time within
//    kAttributionTolerancePct (the decomposition is a partition of the
//    iteration interval by "what was active", so it is exact up to
//    floating-point accumulation);
//  * the critical path: the chain of trainer phase spans that tiles the
//    iteration, with sync phases joined through the collective op that ran
//    under them (via the correlation id stamped by Communicator::beginOp)
//    down to the last-finishing fabric flow, naming the src->dst pair that
//    actually bounded the collective.
//
// Run-level outputs add per-link contention rankings (replayed from the
// "link:*" counter series: time integrals of utilization while >= 2 flows
// share the link, and the time-weighted utilization mean) and per-span
// mean seconds/iteration, plus a run-diff mode that attributes the
// wall-time delta between two runs to bucket and span-level changes.
// Every figure comes from the profiler's records, which hold the whole
// run. Causal model, bucket definitions and tolerance semantics:
// DESIGN.md section 17.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "falcon/json.hpp"
#include "telemetry/profiler.hpp"

namespace composim::telemetry::analysis {

/// Max tolerated |sum(buckets) - wall| as a percentage of wall time. The
/// sweep partitions the iteration interval, so anything above pure
/// floating-point noise indicates an analyzer bug; bench_analysis gates
/// on this.
inline constexpr double kAttributionTolerancePct = 0.1;

/// Seconds of iteration wall time by cause. Definitions (DESIGN.md s17):
/// compute = compute-tagged trainer spans active (regardless of comm);
/// overlapped_comm = comm active AND compute active (hidden, costs
/// nothing extra); exposed_comm + fabric_contention = comm active with no
/// compute (the exposed part, split by the contended fraction of the
/// fabric flows finishing in the iteration); stall = neither active.
struct Buckets {
  double compute = 0.0;
  double overlapped_comm = 0.0;
  double exposed_comm = 0.0;
  double fabric_contention = 0.0;
  double stall = 0.0;
  double wall = 0.0;

  /// Sum of the wall-time partition (everything except overlapped_comm,
  /// which is informational: it re-counts time already billed to compute).
  double partitionSum() const {
    return compute + exposed_comm + fabric_contention + stall;
  }
};

/// One hop of an iteration's critical path: a trainer phase span, plus a
/// causal detail for sync phases (the collective op + bounding flow).
struct PathItem {
  std::string name;    // trainer phase span name (forward, gradient-sync...)
  std::string bucket;  // the span's "bucket" tag (compute/sync/stall/io)
  SimTime start = 0.0;
  SimTime end = 0.0;
  std::string detail;  // e.g. "allReduce[hierarchical] -> last flow gpu0->gpu4"
  SimTime duration() const { return end - start; }
};

struct IterationAnalysis {
  std::int64_t iter = 0;
  SimTime start = 0.0;
  SimTime end = 0.0;
  Buckets buckets;
  /// Share of wall time covered by critical-path items, percent.
  double coverage_pct = 0.0;
  /// |partitionSum - wall| as a percentage of wall.
  double attribution_error_pct = 0.0;
  std::vector<PathItem> critical_path;
};

/// Contention ranking entry for one fabric link, replayed from its
/// "link:<a>-><b>" counter series.
struct LinkContention {
  std::string link;
  double contention_s = 0.0;  // integral of util while >= 2 flows shared it
  double busy_s = 0.0;        // integral of util over the whole trace
  double util_mean_pct = 0.0;  // time-weighted, first util point to end
};

struct RunAnalysis {
  std::string name;  // run label, settable by the caller (experiment name)
  std::size_t iterations = 0;
  Buckets total;  // summed over analyzed iterations
  Buckets mean;   // total / iterations
  double coverage_pct = 0.0;               // mean over iterations
  double max_attribution_error_pct = 0.0;  // worst iteration
  std::vector<IterationAnalysis> per_iteration;
  std::vector<LinkContention> links;  // ranked, most contended first
  /// Mean seconds per iteration by span name (trainer phases + collective
  /// ops + fabric flow tags), the inputs to span-level run diffing.
  std::map<std::string, double> span_mean_s;
};

/// Analyze a finalized trace. Deterministic: identical traces produce
/// identical (byte-identical once serialized) analyses regardless of
/// sweep parallelism. A trace with no iteration spans yields an empty
/// RunAnalysis (iterations == 0).
RunAnalysis analyzeProfile(const Profiler& prof, std::string name = {});

/// Deterministic JSON document (schema "composim.analysis/1").
falcon::Json toJson(const RunAnalysis& a);
/// Human-readable report (attribution table, critical path, top links).
std::string report(const RunAnalysis& a);

/// Wall-time delta between two runs attributed to buckets and spans.
/// All deltas are other - base, mean seconds per iteration.
struct RunDiff {
  std::string base;
  std::string other;
  double base_wall_s = 0.0;
  double other_wall_s = 0.0;
  double wall_delta_s = 0.0;
  /// (bucket name, delta seconds), ranked by |delta| descending.
  std::vector<std::pair<std::string, double>> bucket_deltas;
  /// (span name, delta seconds), ranked by |delta| descending.
  std::vector<std::pair<std::string, double>> span_deltas;
  /// The partition bucket absorbing the largest share of the delta
  /// ("none" when the runs are indistinguishable).
  std::string dominant_bucket;
};

RunDiff diffRuns(const RunAnalysis& base, const RunAnalysis& other);

/// Deterministic JSON document (schema "composim.analysis.diff/1").
falcon::Json toJson(const RunDiff& d);
std::string report(const RunDiff& d);

}  // namespace composim::telemetry::analysis
