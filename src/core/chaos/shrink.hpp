// composim: delta-debugging shrinker for failing fault schedules.
//
// Given a schedule that makes some oracle fail, find a smaller schedule
// that still fails it: classic ddmin over the schedule's fault atoms
// (complement testing with doubling granularity), followed by a time
// coarsening pass that rounds each surviving injection time to the
// coarsest decimal that preserves the failure. The result is a minimal
// replayable reproducer — emit it with faultsConfigToJson and feed it
// back through `run_suite --faults`.
//
// Determinism guarantee: the shrinker is a pure search driven by the
// predicate. When the predicate is a deterministic replay (any composim
// experiment with a fixed seed), the same input schedule always shrinks
// to the same minimal schedule in the same number of evaluations.
#pragma once

#include <functional>

#include "core/experiment.hpp"

namespace composim::core::chaos {

/// Returns true when the (complete, replayable) schedule still fails.
using FaultPredicate = std::function<bool(const FaultsConfig&)>;

struct ShrinkOptions {
  /// Hard cap on predicate evaluations (each one replays a run).
  int max_evaluations = 96;
};

struct ShrinkOutcome {
  FaultsConfig minimal;     // smallest still-failing schedule found
  bool input_failed = false;  // predicate held on the input schedule
  int evaluations = 0;
  int initial_faults = 0;
  int minimal_faults = 0;
};

/// Shrink `input` against `still_fails`. When the input does not fail
/// the predicate there is nothing to shrink: the outcome carries the
/// input unchanged with input_failed = false.
ShrinkOutcome shrinkFaultSchedule(const FaultsConfig& input,
                                  const FaultPredicate& still_fails,
                                  ShrinkOptions options = {});

}  // namespace composim::core::chaos
