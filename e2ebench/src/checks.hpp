// e2ebench: output checks. A performance or simplicity change must leave
// every simulated statistic bit-identical, so each experiment's results
// are reduced to a digest and compared against the digests recorded for
// the seed (digests.json, passed in by run.py) or, for an unrecorded seed,
// against the run's own first pass.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace e2ebench {

/// The simulated results that must not move, one canonical line:
/// iterations, simulated / extrapolated / mean-iteration time, samples/s,
/// the utilization means and the recovery counts, doubles at full
/// precision.
std::string canonicalText(const composim::core::ExperimentResult& r);

/// 16-hex-digit FNV-1a of canonicalText().
std::string digestOf(const composim::core::ExperimentResult& r);

/// Checks on one experiment's outputs. Each returns a one-line reason, or
/// an empty string when the output passes.
std::string checkTraining(const composim::core::ExperimentResult& r);
/// Analysis buckets sum to wall time within kAttributionTolerancePct and
/// critical paths cover >= 95% of it.
std::string checkAnalysis(const composim::core::ExperimentResult& r);
/// Every flow started completed or failed, none left active.
std::string checkFlowConservation(const composim::core::ExperimentResult& r);
/// Fig 11: BERT-L falconGPUs / localGPUs extrapolated training time must
/// stay in [1.5, 2.0].
std::string checkFig11Ratio(const composim::core::ExperimentResult& local,
                            const composim::core::ExperimentResult& falcon);

/// Per-experiment digest expectations for one run: the recorded list when
/// the seed has one, otherwise whatever the first pass produced, so every
/// later pass must repeat it exactly.
class DigestCheck {
 public:
  explicit DigestCheck(std::vector<std::string> recorded)
      : recorded_(std::move(recorded)) {}

  /// Empty when experiment `index`'s digest matches; otherwise the reason.
  std::string check(std::size_t index, const std::string& digest);

  /// The digests the first pass produced (what digests.json records).
  const std::vector<std::string>& observed() const { return observed_; }

 private:
  std::vector<std::string> recorded_;
  std::vector<std::string> observed_;
};

}  // namespace e2ebench
