// composim bench: parallel sweep engine acceptance gate.
//
// Part 1 runs the same 8-spec suite through core::SweepRunner — serial
// (--jobs 1) and parallel (--jobs 4) — and verifies the engine's two
// promises:
//   (a) equivalence: serial and parallel runs produce byte-identical
//       RunTracker manifests AND byte-identical Chrome trace exports
//       (hard gate, exit nonzero on any divergence);
//   (b) speed, relative to what the host delivers: a CPU calibration
//       kernel is timed at 1 and 4 threads, interleaved with untraced
//       serial and --jobs 4 replays of a longer version of the suite.
//       When the calibration reads >= 2x, the sweep speedup must reach
//       0.75x of it (about 3x on a real 4-core host); below that the
//       host cannot run four threads at once, and both numbers and the
//       reason go into BENCH_sweep.json instead of a verdict. A core
//       count alone cannot tell: a shared host can report four CPUs and
//       deliver one.
//
// The suite is eight equal-cost specs (same benchmark/config, distinct
// names) so a 4-worker replay has a balanced 2-runs-per-worker schedule
// and the speedup measurement reflects the engine, not scheduling luck.
//
// Part 2 gates the snapshot/fork path (DESIGN.md §14) on a warmup-heavy
// 8-variant suite — one shared warm prefix, short distinct tails:
//   (c) equivalence: forked sweeps (share_warm_prefixes on, serial AND
//       --jobs 4) are byte-identical to the cold sweep that runs every
//       prefix, across manifests, traces, Prometheus and JSONL exports;
//   (d) round-trip determinism: two forked replays are byte-identical to
//       each other;
//   (e) speed: the forked replay is >= 2x faster than the cold replay
//       (serial arms, so the ratio measures prefix reuse rather than
//       scheduling; enforced on >= 4-core hosts, recorded as "skipped"
//       elsewhere where timing is too noisy to gate).
//
//   $ ./bench/sweep_parallel [BENCH_sweep.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/sweep_runner.hpp"
#include "telemetry/run_tracker.hpp"

using namespace composim;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

constexpr int kSuiteSize = 8;
constexpr int kParallelJobs = 4;
/// Iterations per spec. The traced equivalence suite stays short (at 48
/// traced iterations an arm wrote about 300 MB of Chrome traces); the
/// untraced timing suite runs long enough that a --jobs 4 arm dwarfs
/// thread start-up and scheduler jitter.
constexpr int kSuiteIterations = 12;
constexpr int kTimingIterations = 144;
/// Each arm runs this many times, interleaved; its best wall time counts.
constexpr int kRounds = 5;
/// The sweep gate is enforced only when the calibration reaches this...
constexpr double kMinCalibrationSpeedup = 2.0;
/// ...and then demands this share of the calibration speedup.
constexpr double kRequiredShare = 0.75;

/// Calibration kernel: kSuiteSize equal slices dealt over `threads` plain
/// std::threads. Each slice fills a fresh 512 KiB vector with pseudo-random
/// keys and sorts it, so like a simulation run it allocates, branches and
/// streams memory. It bypasses the sweep pool on purpose, so a pool defect
/// cannot hide in its own yardstick. Returns wall seconds.
double calibrate(int threads) {
  constexpr std::size_t kKeys = std::size_t{1} << 16;
  constexpr int kSortsPerSlice = 4;
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&sinks, threads, t] {
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      std::uint64_t sum = 0;
      for (int slice = t; slice < kSuiteSize; slice += threads) {
        for (int r = 0; r < kSortsPerSlice; ++r) {
          std::vector<std::uint64_t> keys(kKeys);
          for (std::uint64_t& k : keys) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            k = x ^ (x >> 29);
          }
          std::sort(keys.begin(), keys.end());
          sum += keys[kKeys / 2];
        }
      }
      sinks[static_cast<std::size_t>(t)] = sum;
    });
  }
  for (auto& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::uint64_t sum = 0;
  for (const std::uint64_t v : sinks) sum += v;
  // Consume the result so the kernel cannot be optimized away.
  if (sum == 0) std::printf("calibration sink: 0\n");
  return wall;
}

std::vector<core::ExperimentSpec> buildSuite(int iterations, bool trace) {
  std::vector<core::ExperimentSpec> specs;
  for (int i = 0; i < kSuiteSize; ++i) {
    core::ExperimentSpec s;
    s.name = "sweep-" + std::to_string(i);
    s.workload = "ResNet-50";
    s.config = core::SystemConfig::FalconGpus;
    s.options.trainer.epochs = 1;
    s.options.trainer.max_iterations_per_epoch = iterations;
    s.options.trace = trace;
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Warmup-heavy fork suite: eight variants of ONE warm prefix
/// (kWarmPrefix iterations) whose tails are 2..9 iterations. The prefix
/// dominates, so running it once and forking is most of the win. Untraced:
/// each fork would otherwise copy the donor's full prefix trace (string-
/// heavy record vectors), which costs about as much as recording it and
/// would measure trace copying instead of prefix reuse. Trace byte-
/// identity under forking is gated separately (snapshot_fork_test).
constexpr int kWarmPrefix = 24;

std::vector<core::ExperimentSpec> buildForkSuite() {
  std::vector<core::ExperimentSpec> specs;
  for (int i = 0; i < kSuiteSize; ++i) {
    core::ExperimentSpec s;
    s.name = "fork-" + std::to_string(i);
    s.workload = "ResNet-50";
    s.config = core::SystemConfig::FalconGpus;
    s.options.trainer.epochs = 1;
    s.options.trainer.max_iterations_per_epoch = kWarmPrefix + 2 + i;
    s.options.warm_prefix = kWarmPrefix;
    specs.push_back(std::move(s));
  }
  return specs;
}

struct SweepArtifacts {
  double wall_seconds = 0.0;
  std::string manifest;                  // RunTracker manifest JSON
  std::vector<std::string> traces;       // per-run Chrome trace JSON text
  std::vector<std::string> prometheus;   // per-run registry exposition
  std::vector<std::string> jsonl;        // per-run scraped-series dump
  bool all_ok = true;

  bool operator==(const SweepArtifacts& o) const {
    return manifest == o.manifest && traces == o.traces &&
           prometheus == o.prometheus && jsonl == o.jsonl;
  }
};

SweepArtifacts replay(int jobs, const std::string& trace_dir) {
  SweepArtifacts art;
  core::SweepRunner runner({jobs});
  const auto outcomes = runner.run(buildSuite(kSuiteIterations, true));

  // Aggregation happens here, post-barrier, exactly as run_suite does it.
  telemetry::RunTracker tracker;
  for (const auto& done : outcomes) {
    if (!done.status) {
      art.all_ok = false;
      continue;
    }
    auto& run = tracker.run(done.spec.name);
    run.setConfig("benchmark", done.spec.workload);
    run.setConfig("config", core::toString(done.spec.config));
    run.setSummary("mean_iteration_s", done.result.training.mean_iteration_time);
    run.setSummary("samples_per_second", done.result.training.samples_per_second);
    run.setSummary("gpu_util_pct", done.result.gpu_util_pct);
    run.setSummary("falcon_pcie_gbs", done.result.falcon_pcie_gbs);
    const auto& util = done.result.metrics->series("gpu_util_pct");
    for (std::size_t i = 0; i < util.size(); ++i) {
      run.log("gpu_util_pct", util.timeAt(i), util.valueAt(i));
    }
    const std::string path =
        trace_dir + "/" + done.spec.name + "_trace.json";
    if (done.result.profiler &&
        done.result.profiler->writeChromeTrace(path)) {
      std::ifstream in(path);
      std::ostringstream buf;
      buf << in.rdbuf();
      art.traces.push_back(buf.str());
    } else {
      art.all_ok = false;
    }
  }
  art.manifest = tracker.manifest().dump(2);
  return art;
}

/// Wall seconds of one untraced replay of the timing suite; false in
/// `ok` when a run failed.
double timeReplay(int jobs, bool& ok) {
  core::SweepRunner runner({jobs});
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner.run(buildSuite(kTimingIterations, false));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& done : outcomes) ok = ok && done.status.ok;
  return wall;
}

/// Replay the fork suite, cold (every spec runs its own prefix) or forked
/// (the shared prefix runs once, tails fork from the snapshot). Artifacts
/// are collected in memory — every export surface participates in the
/// equivalence gates.
SweepArtifacts replayFork(int jobs, bool share) {
  SweepArtifacts art;
  core::SweepOptions opts;
  opts.jobs = jobs;
  opts.share_warm_prefixes = share;
  core::SweepRunner runner(opts);
  // Time the sweep alone; rendering the artifacts (trace JSON in
  // particular) costs the same per run in both arms and would only dilute
  // the prefix-reuse signal the speedup gate measures.
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner.run(buildForkSuite());
  art.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  telemetry::RunTracker tracker;
  for (const auto& done : outcomes) {
    if (!done.status) {
      art.all_ok = false;
      continue;
    }
    auto& run = tracker.run(done.spec.name);
    run.setConfig("benchmark", done.spec.workload);
    run.setConfig("config", core::toString(done.spec.config));
    run.setSummary("mean_iteration_s", done.result.training.mean_iteration_time);
    run.setSummary("gpu_util_pct", done.result.gpu_util_pct);
    if (done.result.profiler) {
      art.traces.push_back(done.result.profiler->chromeTrace().dump(2));
    }
    art.prometheus.push_back(done.result.metrics->prometheusText());
    art.jsonl.push_back(done.result.metrics->jsonlDump());
  }
  art.manifest = tracker.manifest().dump(2);
  return art;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Sweep engine",
                "serial vs parallel replay: equivalence + speedup");

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";
  const std::string trace_root =
      std::filesystem::path(out_path).parent_path().string();
  const std::string serial_dir =
      (trace_root.empty() ? "." : trace_root) + "/sweep_serial";
  const std::string parallel_dir =
      (trace_root.empty() ? "." : trace_root) + "/sweep_parallel_traces";
  std::filesystem::create_directories(serial_dir);
  std::filesystem::create_directories(parallel_dir);

  std::printf("replaying %d specs serially (--jobs 1)...\n", kSuiteSize);
  const auto serial = replay(1, serial_dir);
  std::printf("replaying %d specs in parallel (--jobs %d)...\n", kSuiteSize,
              kParallelJobs);
  const auto parallel = replay(kParallelJobs, parallel_dir);

  std::printf("timing %d untraced %d-iteration specs at --jobs 1 and %d, "
              "%d rounds interleaved with the calibration...\n",
              kSuiteSize, kTimingIterations, kParallelJobs, kRounds);
  // Best of kRounds for each arm.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double serial_seconds = kInf;
  double parallel_seconds = kInf;
  double calib_serial = kInf;
  double calib_parallel = kInf;
  bool timing_ok = true;
  for (int round = 0; round < kRounds; ++round) {
    calib_serial = std::min(calib_serial, calibrate(1));
    serial_seconds = std::min(serial_seconds, timeReplay(1, timing_ok));
    calib_parallel = std::min(calib_parallel, calibrate(kParallelJobs));
    parallel_seconds =
        std::min(parallel_seconds, timeReplay(kParallelJobs, timing_ok));
  }

  const double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  const double calib_speedup =
      calib_parallel > 0.0 ? calib_serial / calib_parallel : 0.0;
  const bool speedup_enforced = calib_speedup >= kMinCalibrationSpeedup;
  const unsigned hw = std::thread::hardware_concurrency();
  const bool enough_cores = hw >= static_cast<unsigned>(kParallelJobs);

  std::printf("\nserial      : %.3f s wall\n", serial_seconds);
  std::printf("parallel    : %.3f s wall (%u hardware threads)\n",
              parallel_seconds, hw);
  std::printf("speedup     : %.2fx\n", speedup);
  std::printf("calibration : %.3f s at 1 thread, %.3f s at %d (%.2fx)\n\n",
              calib_serial, calib_parallel, kParallelJobs, calib_speedup);

  check(serial.all_ok && parallel.all_ok && timing_ok, "all runs completed");
  check(serial.manifest == parallel.manifest,
        "RunTracker manifests are byte-identical");
  check(serial.traces.size() == static_cast<std::size_t>(kSuiteSize) &&
            parallel.traces == serial.traces,
        "Chrome trace exports are byte-identical");
  char speedup_gate[160];
  if (speedup_enforced) {
    std::snprintf(speedup_gate, sizeof(speedup_gate),
                  "enforced: sweep speedup >= %.2f x calibration speedup",
                  kRequiredShare);
    check(speedup >= kRequiredShare * calib_speedup,
          "parallel replay speedup >= 0.75x the calibration speedup at "
          "--jobs 4");
  } else {
    std::snprintf(speedup_gate, sizeof(speedup_gate),
                  "recorded: calibration speedup %.2fx < %.1fx, the host "
                  "does not run %d threads at once",
                  calib_speedup, kMinCalibrationSpeedup, kParallelJobs);
    std::printf("  [SKIP] speedup gate (%s)\n", speedup_gate);
  }

  std::printf("\nreplaying warmup-heavy fork suite (%d variants, %d-iteration "
              "shared prefix)...\n",
              kSuiteSize, kWarmPrefix);
  std::printf("  cold (every prefix runs, --jobs 1)...\n");
  const auto fork_cold = replayFork(1, /*share=*/false);
  std::printf("  forked (prefix runs once, --jobs 1)...\n");
  const auto fork_serial = replayFork(1, /*share=*/true);
  std::printf("  forked again (round-trip determinism)...\n");
  const auto fork_again = replayFork(1, /*share=*/true);
  std::printf("  forked (--jobs %d; snapshots restore on workers)...\n",
              kParallelJobs);
  const auto fork_parallel = replayFork(kParallelJobs, /*share=*/true);

  const double fork_speedup =
      fork_serial.wall_seconds > 0.0
          ? fork_cold.wall_seconds / fork_serial.wall_seconds
          : 0.0;
  std::printf("\nfork cold   : %.3f s wall\n", fork_cold.wall_seconds);
  std::printf("fork shared : %.3f s wall\n", fork_serial.wall_seconds);
  std::printf("fork speedup: %.2fx\n\n", fork_speedup);

  check(fork_cold.all_ok && fork_serial.all_ok && fork_again.all_ok &&
            fork_parallel.all_ok,
        "all fork-suite runs completed");
  check(fork_cold == fork_serial,
        "forked sweep byte-identical to cold sweep "
        "(manifest+prometheus+jsonl)");
  check(fork_cold == fork_parallel,
        "forked sweep at --jobs 4 byte-identical to cold sweep");
  check(fork_serial == fork_again,
        "snapshot round-trip is deterministic (two forked replays "
        "byte-identical)");
  if (enough_cores) {
    check(fork_speedup >= 2.0,
          "forked replay >= 2x faster than cold on warmup-heavy suite");
  } else {
    std::printf("  [SKIP] fork speedup gate (%u hardware thread(s) < %d; "
                "timing too noisy to gate on this host)\n",
                hw, kParallelJobs);
  }

  auto doc = falcon::Json::object();
  doc.set("bench", "sweep_parallel");
  doc.set("suite_size", static_cast<std::int64_t>(kSuiteSize));
  doc.set("jobs", static_cast<std::int64_t>(kParallelJobs));
  doc.set("serial_seconds", serial_seconds);
  doc.set("parallel_seconds", parallel_seconds);
  doc.set("speedup", speedup);
  doc.set("calibration_serial_seconds", calib_serial);
  doc.set("calibration_parallel_seconds", calib_parallel);
  doc.set("calibration_speedup", calib_speedup);
  doc.set("byte_identical", serial.manifest == parallel.manifest &&
                                parallel.traces == serial.traces);
  doc.set("hardware_concurrency", static_cast<std::int64_t>(hw));
  doc.set("speedup_gate", speedup_gate);
  doc.set("fork_suite_size", static_cast<std::int64_t>(kSuiteSize));
  doc.set("fork_warm_prefix", static_cast<std::int64_t>(kWarmPrefix));
  doc.set("fork_cold_seconds", fork_cold.wall_seconds);
  doc.set("fork_seconds", fork_serial.wall_seconds);
  doc.set("fork_parallel_seconds", fork_parallel.wall_seconds);
  doc.set("fork_speedup", fork_speedup);
  doc.set("fork_byte_identical",
          fork_cold == fork_serial && fork_cold == fork_parallel);
  doc.set("fork_roundtrip_deterministic", fork_serial == fork_again);
  doc.set("fork_speedup_gate",
          enough_cores ? "enforced" : "skipped: <4 cores");
  std::ofstream out(out_path);
  out << doc.dump(2) << "\n";
  const bool wrote = out.good();
  out.close();
  check(wrote, "BENCH_sweep.json written");
  std::printf("\nreport written to %s\n", out_path.c_str());

  if (g_failures) {
    std::printf("\n%d acceptance check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall acceptance checks passed\n");
  return 0;
}
