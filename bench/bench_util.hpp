// composim bench: shared helpers for the bench binaries — the banner each
// one prints, the `--jobs` worker count, the measurement matrix, and the
// warmed-wave and warmed all-reduce allocation budgets.
//
// paper_repro takes `--jobs N` (or the COMPOSIM_JOBS environment variable)
// and fans its runs out through core::sweepOrdered; results come back in
// submission order, so the printed artifacts are byte-identical at any
// job count.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep_runner.hpp"

namespace composim::bench {

/// Heap allocations a warmed ring wave may make from startWave() through
/// delivery, whatever its flow count. solver_scaling gates its measurement
/// on it and bench_json_validate gates the exported figure, so both read
/// this one.
constexpr std::size_t kWaveAllocBudget = 0;

/// Heap allocations a warmed Communicator::allReduce may make from the
/// call through its completion callback, at every rank count and so every
/// step count: ring state, requests and continuations are pooled.
/// Gated and validated like kWaveAllocBudget.
constexpr std::size_t kAllReduceAllocBudget = 0;

inline void banner(const std::string& artifact, const std::string& caption) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), caption.c_str());
  std::printf("(composim reproduction of 'Performance Analysis of Deep Learning\n");
  std::printf(" Workloads on a Composable System', IPPS 2021)\n");
  std::printf("================================================================\n\n");
}

/// Reports a command-line error and exits 2: "<program>: <message>", then
/// "usage: <program> <usage>".
[[noreturn]] inline void usageError(std::string_view argv0, std::string_view usage,
                                    const std::string& message) {
  const std::string program(argv0.substr(argv0.rfind('/') + 1));  // npos + 1 == 0
  std::fprintf(stderr, "%s: %s\nusage: %s %s\n", program.c_str(), message.c_str(),
               program.c_str(), std::string(usage).c_str());
  std::exit(2);
}

/// Worker count for a bench: `--jobs N` wins, then COMPOSIM_JOBS, then 0
/// (auto = hardware_concurrency, resolved by the pool). A missing value, or
/// one that is not a non-negative integer, is a usage error.
inline int jobsFromArgs(int argc, char** argv, std::string_view usage) {
  std::string source = "COMPOSIM_JOBS";
  const char* text = std::getenv("COMPOSIM_JOBS");
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--jobs") continue;
    if (i + 1 == argc) usageError(argv[0], usage, "--jobs needs a worker count (0 = auto)");
    source = "--jobs";
    text = argv[i + 1];
    break;
  }
  if (text == nullptr) return 0;
  const std::string_view value(text);
  int jobs = -1;
  const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), jobs);
  if (ec != std::errc{} || end != value.data() + value.size() || jobs < 0) {
    usageError(argv[0], usage, source + " '" + text + "' is not a worker count (0 = auto)");
  }
  return jobs;
}

/// A (benchmark x configuration) measurement matrix with shared options,
/// returned row-major in (model-major, config-minor) order —
/// result[m * configs.size() + c].
inline std::vector<core::ExperimentResult> experimentMatrix(
    int jobs, const std::vector<dl::ModelSpec>& models,
    const std::vector<core::SystemConfig>& configs,
    const core::ExperimentOptions& opt) {
  return core::sweepOrdered(
      jobs, models.size() * configs.size(), [&](std::size_t i) {
        return core::Experiment::run(configs[i % configs.size()],
                                     models[i / configs.size()], opt);
      });
}

}  // namespace composim::bench
