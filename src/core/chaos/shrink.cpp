#include "core/chaos/shrink.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace composim::core::chaos {

namespace {

/// Uniform handle over the three schedule kinds, so ddmin can treat the
/// schedule as one flat atom list while the rebuilt config keeps each
/// fault in its own typed vector (original relative order preserved).
struct FaultAtom {
  enum class Kind { GpuFalloff, EccStorm, HostPortFlap } kind;
  std::size_t src = 0;  // index into the input config's kind vector
  SimTime at = 0.0;     // mutable: the coarsening pass retimes atoms
};

std::vector<FaultAtom> atomize(const FaultsConfig& cfg) {
  std::vector<FaultAtom> atoms;
  for (std::size_t i = 0; i < cfg.gpu_falloffs.size(); ++i) {
    atoms.push_back({FaultAtom::Kind::GpuFalloff, i, cfg.gpu_falloffs[i].at});
  }
  for (std::size_t i = 0; i < cfg.ecc_storms.size(); ++i) {
    atoms.push_back({FaultAtom::Kind::EccStorm, i, cfg.ecc_storms[i].at});
  }
  for (std::size_t i = 0; i < cfg.host_port_flaps.size(); ++i) {
    atoms.push_back(
        {FaultAtom::Kind::HostPortFlap, i, cfg.host_port_flaps[i].at});
  }
  return atoms;
}

FaultsConfig rebuild(const FaultsConfig& input,
                     const std::vector<FaultAtom>& atoms) {
  FaultsConfig out = input;
  out.gpu_falloffs.clear();
  out.ecc_storms.clear();
  out.host_port_flaps.clear();
  for (const FaultAtom& a : atoms) {
    switch (a.kind) {
      case FaultAtom::Kind::GpuFalloff: {
        auto f = input.gpu_falloffs[a.src];
        f.at = a.at;
        out.gpu_falloffs.push_back(f);
        break;
      }
      case FaultAtom::Kind::EccStorm: {
        auto s = input.ecc_storms[a.src];
        s.at = a.at;
        out.ecc_storms.push_back(s);
        break;
      }
      case FaultAtom::Kind::HostPortFlap: {
        auto h = input.host_port_flaps[a.src];
        h.at = a.at;
        out.host_port_flaps.push_back(h);
        break;
      }
    }
  }
  return out;
}

/// Round `t` to `decimals` decimal places (>= 0).
SimTime roundTo(SimTime t, int decimals) {
  double scale = 1.0;
  for (int i = 0; i < decimals; ++i) scale *= 10.0;
  return std::round(t * scale) / scale;
}

}  // namespace

ShrinkOutcome shrinkFaultSchedule(const FaultsConfig& input,
                                  const FaultPredicate& still_fails,
                                  ShrinkOptions options) {
  ShrinkOutcome out;
  out.minimal = input;
  std::vector<FaultAtom> atoms = atomize(input);
  out.initial_faults = static_cast<int>(atoms.size());
  out.minimal_faults = out.initial_faults;

  const auto evaluate = [&](const std::vector<FaultAtom>& candidate) {
    ++out.evaluations;
    return still_fails(rebuild(input, candidate));
  };

  out.input_failed = evaluate(atoms);
  if (!out.input_failed || atoms.empty()) return out;

  // --- ddmin over fault atoms: try dropping whole chunks (complement
  // testing); on success restart with the smaller set, otherwise refine
  // the granularity until chunks are single atoms.
  std::size_t n = 2;
  while (atoms.size() >= 2 && out.evaluations < options.max_evaluations) {
    n = std::min(n, atoms.size());
    bool reduced = false;
    const std::size_t chunk =
        (atoms.size() + n - 1) / n;  // ceil division, >= 1
    for (std::size_t start = 0;
         start < atoms.size() && out.evaluations < options.max_evaluations;
         start += chunk) {
      std::vector<FaultAtom> candidate;
      candidate.reserve(atoms.size());
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(atoms[i]);
      }
      if (candidate.empty()) continue;
      if (evaluate(candidate)) {
        atoms = std::move(candidate);
        n = std::max<std::size_t>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= atoms.size()) break;  // single-atom granularity exhausted
      n = std::min(atoms.size(), n * 2);
    }
  }

  // --- Time coarsening: a reproducer with "at": 30.0 tells a human more
  // than "at": 29.847. Try each surviving atom at 1 then 0 decimals,
  // keeping the coarsest time that still fails.
  for (std::size_t i = 0;
       i < atoms.size() && out.evaluations < options.max_evaluations; ++i) {
    for (const int decimals : {0, 1}) {
      const SimTime coarse = std::max(0.001, roundTo(atoms[i].at, decimals));
      if (coarse == atoms[i].at) break;  // already this coarse
      std::vector<FaultAtom> candidate = atoms;
      candidate[i].at = coarse;
      if (out.evaluations >= options.max_evaluations) break;
      if (evaluate(candidate)) {
        atoms = std::move(candidate);
        break;  // coarsest first: 0 decimals beats 1
      }
    }
  }

  out.minimal = rebuild(input, atoms);
  out.minimal_faults = static_cast<int>(atoms.size());
  return out;
}

}  // namespace composim::core::chaos
