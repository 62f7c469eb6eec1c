// composim: chaos-campaign scenario model + seeded fault-space generator.
//
// A scenario is one sampled point in fault space: a fault schedule
// (what fails, when) plus the recovery capacity the run has to absorb it
// (spares, attach noise, backoff policy). The generator stratifies
// injection times across the phase boundaries where recovery bugs hide —
// iteration boundaries, checkpoint boundaries, mid-collective windows —
// anchored to timing measured from one healthy run, and deliberately
// overlaps a fraction of faults inside one detection window so the
// single-incident-per-slot and multi-incident paths both get exercised.
//
// Generation is a pure function of (index, timing): scenario i is drawn
// from its own splitmix-derived RNG stream, so any subset of a campaign
// replays byte-identically in any order on any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace composim::core::chaos {

/// Timing anchors measured from one healthy (fault-free) run of the
/// campaign's workload. All scenario injection times derive from these.
struct BaselineTiming {
  SimTime horizon = 0.0;          // healthy training.simulated_time
  SimTime mean_iteration = 0.0;   // healthy mean iteration time
  std::int64_t iterations = 0;    // iterations the healthy run committed
  SimTime checkpoint_period = 0.0;  // mean_iteration * checkpoint window
};

/// One sampled point in fault space, replayable on its own: `faults` is a
/// complete --faults document (schedule + capacity + policy + seed).
struct Scenario {
  int index = 0;
  std::uint64_t seed = 0;  // campaign seed mixed with index
  FaultsConfig faults;
  /// Compact single-line summary ("3 faults: falloff g2@1.84 ...").
  std::string describe() const;
};

/// Deterministically sample `count` scenarios anchored to `timing`. The
/// fault space (targets, per-scenario fault counts, recovery-capacity
/// choices) is fixed in scenario.cpp.
std::vector<Scenario> generateScenarios(int count,
                                        const BaselineTiming& timing);

}  // namespace composim::core::chaos
