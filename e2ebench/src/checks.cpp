#include "checks.hpp"

#include <cinttypes>
#include <cstdio>

namespace e2ebench {

using namespace composim;

std::string canonicalText(const core::ExperimentResult& r) {
  const dl::TrainingResult& t = r.training;
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "%s|%s|completed=%d|epochs=%d|iters=%" PRId64 "|full=%" PRId64
      "|sim=%.17g|extrap=%.17g|mean_iter=%.17g|sps=%.17g|gpu=%.17g"
      "|gpu_mem=%.17g|gpu_access=%.17g|cpu=%.17g|host_mem=%.17g"
      "|pcie=%.17g|restores=%d|lost=%" PRId64,
      r.benchmark.c_str(), core::toString(r.config), t.completed ? 1 : 0,
      t.epochs, t.iterations_run, t.iterations_full, t.simulated_time,
      t.extrapolated_total_time, t.mean_iteration_time,
      t.samples_per_second, r.gpu_util_pct, r.gpu_mem_util_pct,
      r.gpu_mem_access_pct, r.cpu_util_pct, r.host_mem_util_pct,
      r.falcon_pcie_gbs, t.restores, t.lost_iterations);
  return buf;
}

std::string digestOf(const core::ExperimentResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const unsigned char c : canonicalText(r)) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string checkTraining(const core::ExperimentResult& r) {
  if (!r.training.completed) {
    return r.benchmark + " on " + core::toString(r.config) +
           " did not complete: " + r.training.error;
  }
  if (r.training.iterations_run <= 0) {
    return r.benchmark + " on " + core::toString(r.config) +
           " ran no iterations";
  }
  return {};
}

std::string checkAnalysis(const core::ExperimentResult& r) {
  if (!r.analysis || r.analysis->iterations == 0) {
    return "no analysis for " + r.benchmark + " on " +
           core::toString(r.config);
  }
  char buf[160];
  if (r.analysis->max_attribution_error_pct >
      telemetry::analysis::kAttributionTolerancePct) {
    std::snprintf(buf, sizeof(buf),
                  "analysis buckets off wall time by %.4f%% (> %.2f%%)",
                  r.analysis->max_attribution_error_pct,
                  telemetry::analysis::kAttributionTolerancePct);
    return buf;
  }
  if (r.analysis->coverage_pct < 95.0) {
    std::snprintf(buf, sizeof(buf), "critical-path coverage %.2f%% < 95%%",
                  r.analysis->coverage_pct);
    return buf;
  }
  return {};
}

std::string checkFlowConservation(const core::ExperimentResult& r) {
  const core::RecoverySummary& s = r.recovery;
  if (!s.enabled) return "fault run without recovery accounting";
  if (s.flows_started != s.flows_completed + s.flows_failed ||
      s.flows_active_at_end != 0) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "flows not conserved: started %" PRIu64
                  " != completed %" PRIu64 " + failed %" PRIu64
                  ", %zu active at end",
                  s.flows_started, s.flows_completed, s.flows_failed,
                  s.flows_active_at_end);
    return buf;
  }
  return {};
}

std::string checkFig11Ratio(const core::ExperimentResult& local,
                            const core::ExperimentResult& falcon) {
  const double base = local.training.extrapolated_total_time;
  const double ratio =
      base > 0.0 ? falcon.training.extrapolated_total_time / base : 0.0;
  if (ratio < 1.5 || ratio > 2.0) {
    char buf[120];
    std::snprintf(buf, sizeof(buf),
                  "Fig 11 BERT-L falcon/local time ratio %.4f outside "
                  "[1.5, 2.0]",
                  ratio);
    return buf;
  }
  return {};
}

std::string DigestCheck::check(std::size_t index, const std::string& digest) {
  if (index >= observed_.size()) observed_.resize(index + 1);
  if (observed_[index].empty()) observed_[index] = digest;
  const std::vector<std::string>& expected =
      recorded_.empty() ? observed_ : recorded_;
  if (index >= expected.size()) {
    return "experiment " + std::to_string(index) + " has no recorded digest";
  }
  if (expected[index] != digest) {
    return "experiment " + std::to_string(index) + " digest " + digest +
           " != " + (recorded_.empty() ? "first pass " : "recorded ") +
           expected[index];
  }
  return {};
}

}  // namespace e2ebench
