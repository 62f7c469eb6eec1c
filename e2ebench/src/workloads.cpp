#include "workloads.hpp"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "checks.hpp"
#include "core/sweep_runner.hpp"
#include "dl/workload_registry.hpp"
#include "inputs.hpp"
#include "stats.hpp"

namespace e2ebench {

using namespace composim;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 31;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(const char* format, double a) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a);
  return buf;
}

/// Host-speed reference: a fixed, seeded std::map churn of the benchmark's
/// own (a few MB of nodes, like the simulator's working set). On a host
/// whose caches are shared with other tenants (the reference host: a
/// 4-vCPU Xeon VM) cache-resident code runs up to 2x slower in phases
/// lasting seconds to minutes; the kernel slows with it, no change to the
/// simulator changes it, and it takes about kReferenceNominalMs on the
/// reference host when that is quiet. NOTES.md has the measurements.
constexpr double kReferenceNominalMs = 40.0;

double referenceKernelMs() {
  const Clock::time_point t0 = Clock::now();
  std::map<std::uint64_t, double> nodes;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int op = 0; op < 200000; ++op) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    nodes[x % 200000] += 1.0;
    if (nodes.size() > 50000) nodes.erase(nodes.begin());
  }
  return nodes.empty() ? 0.0 : 1e3 * secondsSince(t0);
}

/// The reference kernel timed in a child process, so that its memory
/// never counts toward this process's peak resident set, pinned to the
/// core this process runs on, so that it sees the same caches.
double referenceMs() {
  const int cpu = sched_getcpu();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("reference: pipe failed");
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("reference: fork failed");
  if (child == 0) {
    close(fds[0]);
    if (cpu >= 0) {
      cpu_set_t on;
      CPU_ZERO(&on);
      CPU_SET(cpu, &on);
      sched_setaffinity(0, sizeof on, &on);
    }
    const double ms = referenceKernelMs();
    const bool sent = write(fds[1], &ms, sizeof ms) == sizeof ms;
    _exit(sent ? 0 : 1);  // no atexit handlers, no second stdout flush
  }
  close(fds[1]);
  double ms = 0.0;
  const ssize_t got = read(fds[0], &ms, sizeof ms);
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (got != sizeof ms || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      ms <= 0.0) {
    throw std::runtime_error("reference kernel failed");
  }
  return ms;
}

/// Host-time samples of a timed phase, per experiment index (a pass runs
/// the same experiments in the same order every time), with the reference
/// kernel's time after each pass.
struct Samples {
  std::vector<std::vector<double>> ms;   // host ms of experiment i, per pass
  std::vector<std::int64_t> iterations;  // delivered by experiment i
  std::vector<double> reference_ms;      // per pass
  int passes = 0;

  /// Time experiment `i`'s call (recorded even when it throws, so every
  /// experiment has one sample per pass).
  template <typename Fn>
  void time(std::size_t i, Fn&& fn) {
    if (i >= ms.size()) {
      ms.resize(i + 1);
      iterations.resize(i + 1);
    }
    const Clock::time_point t0 = Clock::now();
    try {
      fn();
    } catch (...) {
      ms[i].push_back(1e3 * secondsSince(t0));
      throw;
    }
    ms[i].push_back(1e3 * secondsSince(t0));
  }

  /// Experiment i's host time in pass p, rescaled to the quiet reference
  /// host by the reference kernel's time right after the pass.
  double normalized(std::size_t i, std::size_t p) const {
    return ms[i][p] * kReferenceNominalMs / reference_ms[p];
  }

  /// Each experiment's median normalized time over the passes.
  std::vector<double> perExperiment() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      std::vector<double> v;
      for (std::size_t p = 0; p < ms[i].size(); ++p) {
        v.push_back(normalized(i, p));
      }
      out.push_back(median(v));
    }
    return out;
  }

  std::vector<double> all(bool rescaled) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      for (std::size_t p = 0; p < ms[i].size(); ++p) {
        out.push_back(rescaled ? normalized(i, p) : ms[i][p]);
      }
    }
    return out;
  }
};

/// Run `pass` at least once, then again while another pass of average
/// length still fits in `seconds` (only once when untimed), timing the
/// reference kernel after each.
template <typename Pass>
void timedPasses(double seconds, bool timed, Samples& s, Pass&& pass) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    pass();
    s.reference_ms.push_back(referenceMs());
    ++s.passes;
    const double elapsed = secondsSince(start);
    if (!timed || elapsed + elapsed / s.passes > seconds) break;
  }
}

/// Run `fn`, converting an exception into the experiment's failure reason.
template <typename Fn>
std::string guarded(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
  return {};
}

void endToEndMetrics(Report& rep, const Samples& s, const Setup& setup) {
  const std::vector<double> per_exp = s.perExperiment();
  double exp_ms = 0.0;
  for (const double m : per_exp) exp_ms += m;
  std::int64_t iters = 0;
  for (const std::int64_t n : s.iterations) iters += n;
  const double attempted =
      static_cast<double>(std::max<std::int64_t>(1, rep.attempted));
  const double failed_frac = static_cast<double>(rep.failed) / attempted;
  const std::vector<double> all = s.all(true);
  const Tail tail = tailPercentile(all);
  char note[120];
  std::snprintf(note, sizeof(note), "%s of %zu experiments, %zu beyond%s",
                percentileLabel(tail.per_mille), tail.samples, tail.beyond,
                tail.qualified ? "" : " (fewer than 10)");
  rep.metrics = {
      {"iters_per_host_s", 1e3 * static_cast<double>(iters) / exp_ms, "1/s",
       "one pass at its median time, " + std::to_string(s.passes) +
           " passes"},
      {"exp_host_ms_p50", median(all), "ms",
       std::to_string(all.size()) + " experiments"},
      {"exp_host_ms_tail", tail.value, "ms", note},
      {"setup_s", setup.setup_s * kReferenceNominalMs / setup.reference_ms, "s",
       "median of " + std::to_string(kSetupReps) + " set-ups"},
      {"peak_rss_mb", peakRssMb(), "MiB", ""},
      {"completed_frac", 1.0 - failed_frac, "ratio",
       fmt("failed_frac %.4g", failed_frac)},
  };
  char line[240];
  std::snprintf(line, sizeof(line),
                "as measured: median %.6g ms, tail %.6g ms, set-up %.6g s; "
                "reference kernel median %.4g ms (quiet host %.0f ms)",
                median(s.all(false)), tailPercentile(s.all(false)).value,
                setup.setup_s, median(s.reference_ms), kReferenceNominalMs);
  rep.lines.push_back(line);
  std::snprintf(line, sizeof(line), "%d passes, %lld/%lld experiments failed",
                s.passes, static_cast<long long>(rep.failed),
                static_cast<long long>(rep.attempted));
  rep.lines.push_back(line);
}

// --- matrix_untraced ------------------------------------------------------

Report matrix(const RunArgs& a, bool timed) {
  Report rep;
  const std::vector<core::SystemConfig> configs = core::allConfigs();
  const Setup setup =
      timedSetup(tableIIRefs(), configs.front(), timed ? kSetupReps : 1);
  const core::ExperimentOptions options = matrixOptions(a.seed);
  DigestCheck digests(a.expected_digests);
  Samples s;

  timedPasses(a.seconds, timed, s, [&] {
    std::size_t i = 0;
    core::ExperimentResult bert_local;
    for (std::size_t m = 0; m < setup.models.size(); ++m) {
      for (const core::SystemConfig c : configs) {
        core::ExperimentResult r;
        std::string why = guarded([&] {
          s.time(i, [&] {
            r = core::Experiment::run(c, setup.models[m], options);
          });
        });
        if (why.empty()) why = checkTraining(r);
        if (why.empty()) why = digests.check(i, digestOf(r));
        if (why.empty() && m == kBertLargeIndex) {
          if (c == core::SystemConfig::LocalGpus) bert_local = r;
          if (c == core::SystemConfig::FalconGpus) {
            why = checkFig11Ratio(bert_local, r);
          }
        }
        rep.tally(why);
        s.iterations[i] = why.empty() ? r.training.iterations_run : 0;
        ++i;
      }
    }
  });
  rep.digests = digests.observed();
  endToEndMetrics(rep, s, setup);
  return rep;
}

// --- analyze_export -------------------------------------------------------

Report analyzeExport(const RunArgs& a, bool timed) {
  Report rep;
  const std::vector<core::SystemConfig> configs = analyzeConfigs();
  const core::ExperimentOptions options = analyzeOptions(a.seed, true);
  const Setup setup =
      timedSetup({options.workload}, configs.front(), timed ? kSetupReps : 1);
  DigestCheck digests(a.expected_digests);
  Samples s;
  std::size_t export_bytes = 0;

  timedPasses(a.seconds, timed, s, [&] {
    std::shared_ptr<telemetry::analysis::RunAnalysis> base;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      core::ExperimentResult r;
      // Everything run_suite --analyze --trace writes, serialized to
      // memory; the pair's diff is charged to the second experiment.
      std::string why = guarded([&] {
        s.time(i, [&] {
          r = core::Experiment::run(configs[i], setup.models.front(), options);
          if (!r.profiler || !r.analysis || !r.metrics) {
            throw std::runtime_error("traced run without profile/analysis");
          }
          export_bytes += r.profiler->chromeTrace().dump(-1).size();
          export_bytes +=
              telemetry::analysis::toJson(*r.analysis).dump(2).size();
          export_bytes += telemetry::analysis::report(*r.analysis).size();
          export_bytes += r.metrics->prometheusText().size();
          export_bytes += r.metrics->jsonlDump().size();
          if (base) {
            const auto diff = telemetry::analysis::diffRuns(*base, *r.analysis);
            export_bytes += telemetry::analysis::toJson(diff).dump(2).size();
            export_bytes += telemetry::analysis::report(diff).size();
          }
        });
      });
      if (why.empty()) why = checkTraining(r);
      if (why.empty()) why = checkAnalysis(r);
      if (why.empty()) why = digests.check(i, digestOf(r));
      rep.tally(why);
      s.iterations[i] = why.empty() ? r.training.iterations_run : 0;
      base = r.analysis;
    }
  });
  rep.digests = digests.observed();
  endToEndMetrics(rep, s, setup);
  rep.lines.push_back(fmt("%.1f MB exported per pass",
                          static_cast<double>(export_bytes) / 1e6 / s.passes));
  return rep;
}

// --- fault_fork_sweep -----------------------------------------------------

Report faultForkSweep(const RunArgs& a, bool timed) {
  Report rep;
  const Setup setup = timedSetup({sweepBaseOptions(a.seed).workload},
                                 kSweepConfig, timed ? kSetupReps : 1);
  // Input generation, not set-up: the fault times are drawn after the
  // boundary this probe measures.
  const double boundary = measureBoundary(setup.models.front(), a.seed);
  const std::vector<core::ExperimentSpec> specs = faultSuite(a.seed, boundary);
  DigestCheck digests(a.expected_digests);
  Samples s;
  core::SweepOptions so;
  so.jobs = 1;
  so.share_warm_prefixes = true;

  // One experiment is the whole suite; failures count per spec.
  std::int64_t restores = 0;
  std::int64_t lost = 0;
  timedPasses(a.seconds, timed, s, [&] {
    std::vector<core::SweepRun> runs;
    s.time(0, [&] { runs = core::SweepRunner(so).run(specs); });
    std::int64_t iters = 0;
    restores = lost = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const core::SweepRun& run = runs[i];
      std::string why = run.status.ok ? "" : run.status.toString();
      if (why.empty()) why = checkTraining(run.result);
      if (why.empty()) why = checkFlowConservation(run.result);
      if (why.empty()) why = digests.check(i, digestOf(run.result));
      rep.tally(why.empty() ? why : run.spec.name + ": " + why);
      if (why.empty()) iters += run.result.training.iterations_run;
      restores += run.result.training.restores;
      lost += run.result.training.lost_iterations;
    }
    s.iterations[0] = iters;
  });
  rep.digests = digests.observed();
  endToEndMetrics(rep, s, setup);
  rep.lines.push_back(
      fmt("warm-prefix boundary at t=%.3f s (simulated)", boundary));
  rep.lines.push_back("per suite: " + std::to_string(restores) +
                      " restores, " + std::to_string(lost) +
                      " lost iterations");
  return rep;
}

Report dispatch(const RunArgs& a, bool timed) {
  if (a.workload == kMatrix) return matrix(a, timed);
  if (a.workload == kAnalyze) return analyzeExport(a, timed);
  if (a.workload == kFaultSweep) return faultForkSweep(a, timed);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

}  // namespace

void Report::tally(const std::string& why) {
  ++attempted;
  if (!why.empty()) {
    ++failed;
    failures.push_back(why);
  }
}

Setup timedSetup(const std::vector<std::string>& refs,
                 core::SystemConfig first, int reps) {
  Setup setup;
  std::vector<double> took;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::vector<dl::ModelSpec> models;
    for (const std::string& ref : refs) {
      dl::ModelSpec m;
      if (const Status st = dl::WorkloadRegistry::instance().resolve(ref, &m);
          !st.ok) {
        throw std::runtime_error(st.toString());
      }
      models.push_back(std::move(m));
    }
    { core::ComposableSystem system(first); }
    took.push_back(secondsSince(t0));
    setup.models = std::move(models);
  }
  setup.setup_s = median(took);
  setup.reference_ms = referenceMs();
  return setup;
}

Report runWorkload(const RunArgs& args) { return dispatch(args, true); }

Report digestPass(const RunArgs& args) { return dispatch(args, false); }

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it
  // would report the launching interpreter's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace e2ebench
