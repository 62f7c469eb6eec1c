#include "core/chaos/scenario.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "sim/random.hpp"

namespace composim::core::chaos {

namespace {

// The sampled fault space: targets, per-scenario fault counts, and the
// recovery-capacity choices each scenario draws from.
constexpr std::uint64_t kSeed = 2026;
constexpr int kMaxFaultsPerScenario = 3;
constexpr int kGpuCount = 8;  // falcon GPUs, install order
constexpr std::array<int, 2> kHostPorts = {0, 2};
constexpr std::array<int, 3> kSpareChoices = {0, 1, 2};
constexpr std::array<double, 3> kAttachFailureChoices = {0.0, 0.3, 0.9};
/// Health-poll cadence for every scenario (also the overlap window).
constexpr SimTime kPollInterval = 0.25;
/// Fraction of non-first faults retimed into the previous fault's
/// detection window (overlapping-incident coverage).
constexpr double kOverlapFraction = 0.25;

/// splitmix64 finalizer: decorrelates per-scenario streams so adjacent
/// indices share no low-bit structure (Rng reseeds via splitmix too, but
/// mixing here keeps scenario i independent of the campaign seed's form).
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Round to 3 decimals: keeps injection times human-readable in
/// reproducer JSON without collapsing distinct strata.
SimTime quantize(SimTime t) {
  return std::max(0.001, static_cast<double>(static_cast<std::int64_t>(
                             t * 1000.0 + 0.5)) /
                             1000.0);
}

/// Draw one injection time, stratified across the phase boundaries where
/// recovery interacts with training structure.
SimTime drawTime(Rng& rng, const BaselineTiming& timing) {
  const SimTime iter = std::max(1e-3, timing.mean_iteration);
  const std::int64_t iters = std::max<std::int64_t>(1, timing.iterations);
  const SimTime horizon = std::max(iter, timing.horizon);
  switch (rng.next() % 4) {
    case 0: {  // iteration boundary +/- 10%
      const auto k = 1 + static_cast<std::int64_t>(rng.next() %
                                                   static_cast<std::uint64_t>(iters));
      return static_cast<double>(k) * iter + rng.uniform(-0.1, 0.1) * iter;
    }
    case 1: {  // checkpoint boundary (fall back to uniform without one)
      if (timing.checkpoint_period > 0.0) {
        const auto windows = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(horizon / timing.checkpoint_period));
        const auto k = 1 + static_cast<std::int64_t>(
                               rng.next() % static_cast<std::uint64_t>(windows));
        return static_cast<double>(k) * timing.checkpoint_period +
               rng.uniform(-0.05, 0.05) * iter;
      }
      return rng.uniform(0.05, 0.95) * horizon;
    }
    case 2: {  // mid-collective window: late inside an iteration
      const auto k = static_cast<std::int64_t>(rng.next() %
                                               static_cast<std::uint64_t>(iters));
      return static_cast<double>(k) * iter + rng.uniform(0.5, 0.9) * iter;
    }
    default:
      return rng.uniform(0.05, 0.95) * horizon;
  }
}

template <typename T, std::size_t N>
const T& pick(Rng& rng, const std::array<T, N>& choices) {
  return choices[static_cast<std::size_t>(rng.next() % choices.size())];
}

}  // namespace

std::string Scenario::describe() const {
  char buf[64];
  std::string out;
  const auto n = faults.gpu_falloffs.size() + faults.ecc_storms.size() +
                 faults.host_port_flaps.size();
  std::snprintf(buf, sizeof(buf), "%zu fault%s (spares=%d):", n,
                n == 1 ? "" : "s", faults.spare_gpus);
  out += buf;
  for (const auto& f : faults.gpu_falloffs) {
    std::snprintf(buf, sizeof(buf), " falloff g%d@%.3f", f.gpu_index, f.at);
    out += buf;
  }
  for (const auto& s : faults.ecc_storms) {
    std::snprintf(buf, sizeof(buf), " ecc g%d@%.3f", s.gpu_index, s.at);
    out += buf;
  }
  for (const auto& h : faults.host_port_flaps) {
    std::snprintf(buf, sizeof(buf), " flap p%d@%.3f/%.3f", h.port, h.at,
                  h.downtime);
    out += buf;
  }
  return out;
}

std::vector<Scenario> generateScenarios(int count,
                                        const BaselineTiming& timing) {
  std::vector<Scenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(count));
  const SimTime horizon = std::max(1e-3, timing.horizon);

  for (int i = 0; i < count; ++i) {
    Scenario s;
    s.index = i;
    s.seed = mix(kSeed, static_cast<std::uint64_t>(i));
    Rng rng(s.seed);

    FaultsConfig& f = s.faults;
    f.enabled = true;
    f.seed = s.seed;
    f.health_poll_interval = kPollInterval;
    f.spare_gpus = pick(rng, kSpareChoices);
    f.attach_failure_rate = pick(rng, kAttachFailureChoices);
    // Capacity knobs drawn coarse: each scenario either runs the plain
    // exponential backoff or the jittered/capped/budgeted variant, so
    // both policy paths see the whole fault space.
    if (rng.next() % 2 == 1) {
      f.policy.attach_backoff_jitter = 0.25;
      f.policy.attach_backoff_max = 1.0;
      f.policy.attach_retry_budget = 40.0 * kPollInterval;
    }

    const int n_faults =
        1 + static_cast<int>(rng.next() %
                             static_cast<std::uint64_t>(kMaxFaultsPerScenario));
    SimTime prev_at = -1.0;
    for (int j = 0; j < n_faults; ++j) {
      SimTime at = drawTime(rng, timing);
      // Overlap a fraction of follow-up faults into the previous fault's
      // detection window: one poll then sees several signals at once.
      if (prev_at >= 0.0 && rng.uniform() < kOverlapFraction) {
        at = prev_at + rng.uniform(0.0, kPollInterval);
      }
      at = quantize(std::clamp(at, 0.01, 0.98 * horizon));
      prev_at = at;

      const int gpu = static_cast<int>(
          rng.next() % static_cast<std::uint64_t>(kGpuCount));
      switch (rng.next() % 3) {
        case 0:
          f.gpu_falloffs.push_back({gpu, at});
          break;
        case 1:
          f.ecc_storms.push_back(
              {gpu, at, 200 + rng.next() % 800});
          break;
        default:
          f.host_port_flaps.push_back(
              {pick(rng, kHostPorts), at,
               quantize(rng.uniform(0.5, 2.0))});
          break;
      }
    }
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace composim::core::chaos
