// The traced per-layer ledger. Nothing inside the simulator is
// instrumented: every number here is a span the benchmark records around a
// public call into one module, or a counter that module already exposes.
//
// matrix_untraced: each spec runs once through Experiment::run (the
//   reference) and once through a replica that builds the same stack from
//   the public classes — ComposableSystem, Trainer, MetricsPipeline with
//   the telemetry/collectors.hpp collectors — so each construction step
//   and Simulator::run can be timed and the layer counters read. The two
//   digests must match: the replica is the same program.
// analyze_export: the BERT-L pair untraced, then traced, with
//   analyzeProfile, the Chrome trace, the metrics exports and diffRuns each
//   timed separately.
// fault_fork_sweep: the suite driven through WarmedExperiment directly
//   (prefix, snapshot(), resumeFromSnapshot per tail) and checked against
//   SweepRunner; a faulted replica of each spec's continuous run reads the
//   topology generations and is checked against Experiment::run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>

#include "checks.hpp"
#include "core/sweep_runner.hpp"
#include "dl/workload_registry.hpp"
#include "fabric/failures.hpp"
#include "falcon/health_monitor.hpp"
#include "inputs.hpp"
#include "stats.hpp"
#include "telemetry/collectors.hpp"
#include "workloads.hpp"

namespace e2ebench {

using namespace composim;

namespace {

using Clock = std::chrono::steady_clock;

/// Benchmark-side spans: name, start, end, parent span, run id. Kept in
/// memory and written out when the ledger ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    int root = -1;  // outermost enclosing span (itself at top level)
    int run = 0;
    double ms() const { return (end_us - start_us) / 1e3; }
  };

  /// Time `fn` as a span named `name`, nested in the innermost open span.
  template <typename Fn>
  decltype(auto) time(const std::string& name, Fn&& fn) {
    struct Close {
      SpanLog* log;
      int id;
      ~Close() { log->end(id); }
    } close{this, begin(name)};
    return fn();
  }

  /// Start a new run id (one per experiment).
  void nextRun() { ++run_; }

  /// Durations of the spans named `name` inside top-level spans named
  /// `root`, in recording order.
  std::vector<double> ms(const std::string& name,
                         const std::string& root) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && underRoot(s, root)) out.push_back(s.ms());
    }
    return out;
  }

  /// For each top-level span named `root`: the summed duration of the
  /// spans named `name` inside it.
  std::vector<double> totalsPerRoot(const std::string& name,
                                    const std::string& root) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != -1 || spans_[i].name != root) continue;
      double total = 0.0;
      for (const Span& s : spans_) {
        if (s.root == static_cast<int>(i) && s.name == name) total += s.ms();
      }
      out.push_back(total);
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"parent\": %d, \"run\": %d, \"name\": "
                    "\"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                    i, s.parent, s.run, s.name.c_str(), s.start_us, s.end_us);
      out << line;
    }
  }

 private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  bool underRoot(const Span& s, const std::string& root) const {
    return spans_[static_cast<std::size_t>(s.root)].name == root;
  }
  int begin(const std::string& name) {
    const int self = static_cast<int>(spans_.size());
    const int parent = open_.empty() ? -1 : open_.back();
    const int root =
        parent < 0 ? self : spans_[static_cast<std::size_t>(parent)].root;
    spans_.push_back({name, nowUs(), 0.0, parent, root, run_});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = nowUs();
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

/// Layer counters read off one replica run.
struct Counters {
  std::int64_t iterations = 0;
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t solves = 0;
  std::uint64_t ops = 0;
  std::uint64_t kernels = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t generations = 0;  // Topology::generation() advance in run

  void add(const Counters& o) {
    iterations += o.iterations;
    events += o.events;
    flows += o.flows;
    recomputes += o.recomputes;
    solves += o.solves;
    ops += o.ops;
    kernels += o.kernels;
    scrapes += o.scrapes;
    generations += o.generations;
  }
};

/// The stack Experiment::run builds, assembled here from the public
/// classes (members in the same order, so they are torn down in the same
/// order) and run continuously. Tracing, hierarchical routing and SLO
/// alert rules are not replicated: no ledger workload sets them on this
/// path, and the digest check against Experiment::run would catch one that
/// did.
struct Replica {
  core::SystemConfig config;
  dl::ModelSpec model;
  core::ExperimentOptions options;

  std::unique_ptr<core::ComposableSystem> system;
  std::vector<devices::Gpu*> gpus;
  std::unique_ptr<dl::Trainer> trainer;
  std::unique_ptr<fabric::FaultInjector> injector;
  std::unique_ptr<falcon::HealthMonitor> monitor;
  std::unique_ptr<core::RecoveryOrchestrator> orchestrator;
  std::shared_ptr<telemetry::MetricsPipeline> metrics;

  dl::TrainingResult training;
  bool finished = false;

  Replica(SpanLog& log, core::SystemConfig cfg, const dl::ModelSpec& m,
          core::ExperimentOptions opts)
      : config(cfg), model(m), options(std::move(opts)) {
    system = log.time("core.system_build", [&] {
      return std::make_unique<core::ComposableSystem>(config);
    });
    gpus = system->trainingGpus();
    dl::DatasetSpec dataset;
    if (const Status s =
            dl::WorkloadRegistry::instance().dataset(model.dataset, &dataset);
        !s.ok) {
      throw std::invalid_argument(s.toString());
    }
    trainer = log.time("dl.trainer_build", [&] {
      return std::make_unique<dl::Trainer>(
          system->sim(), system->network(), system->topology(), gpus,
          system->cpu(), system->hostMemory(), system->trainingStorage(),
          model, dataset, options.trainer);
    });
    if (options.faults.enabled) buildRecovery();
    log.time("telemetry.pipeline_build", [&] { buildMetrics(); });
  }

  void buildRecovery() {
    const core::FaultsConfig& faults = options.faults;
    static constexpr falcon::SlotId kSpareSlots[] = {
        {0, 4}, {0, 5}, {0, 6}, {0, 7}, {1, 5}, {1, 6}, {1, 7}};
    for (int i = 0; i < faults.spare_gpus &&
                    i < static_cast<int>(std::size(kSpareSlots));
         ++i) {
      system->installSpareGpu(kSpareSlots[static_cast<std::size_t>(i)]);
    }
    system->chassis().setTransientAttachFailureRate(faults.attach_failure_rate,
                                                    faults.seed + 1);
    injector = std::make_unique<fabric::FaultInjector>(
        system->sim(), system->topology(), system->network(), faults.seed);
    monitor = std::make_unique<falcon::HealthMonitor>(
        system->sim(), system->chassis(), system->bmc());
    monitor->setErrorStormThreshold(faults.error_storm_threshold);
    orchestrator = std::make_unique<core::RecoveryOrchestrator>(
        *system, *monitor, *trainer, faults.policy, faults.seed + 2);
  }

  void buildMetrics() {
    const SimTime interval = options.metrics.scrape_interval > 0.0
                                 ? options.metrics.scrape_interval
                                 : options.sample_interval;
    metrics =
        std::make_shared<telemetry::MetricsPipeline>(system->sim(), interval);
    telemetry::MetricsScraper& scraper = metrics->scraper();
    telemetry::MetricsRegistry& registry = metrics->registry();
    telemetry::collectGpus(scraper, registry, {gpus.begin(), gpus.end()});
    telemetry::collectHostCpu(scraper, registry, system->cpu());
    core::ComposableSystem* sys = system.get();
    telemetry::collectFalconPcie(scraper, registry, [sys] {
      return static_cast<double>(sys->falconGpuPortBytes());
    });
    telemetry::collectFabricLinks(
        scraper, registry, system->topology(),
        telemetry::hostAdapterLinks(system->topology()));
    telemetry::collectBmc(scraper, registry, system->bmc());
    telemetry::observeTrainer(registry, *trainer);
  }

  void activateFaults() {
    if (!options.faults.enabled) return;
    const core::FaultsConfig& faults = options.faults;
    for (const auto& f : faults.gpu_falloffs) {
      const auto& g =
          system->falconGpus().at(static_cast<std::size_t>(f.gpu_index));
      const auto& info = system->chassis().slot(*system->slotOfGpu(g.get()));
      injector->scheduleDeviceFalloff(info.link_up, info.link_down, f.at);
    }
    for (const auto& s : faults.ecc_storms) {
      const auto& g =
          system->falconGpus().at(static_cast<std::size_t>(s.gpu_index));
      injector->scheduleErrorBurst(
          system->chassis().slot(*system->slotOfGpu(g.get())).link_up, s.at,
          s.errors);
    }
    for (const auto& h : faults.host_port_flaps) {
      const auto& port = system->chassis().hostPort(h.port);
      injector->scheduleHostPortFlap(port.link_in, port.link_out, h.at,
                                     h.downtime);
    }
    monitor->start(faults.health_poll_interval);
  }

  /// Run to completion; returns the result Experiment::run would return
  /// (the fields the digest covers) and fills `c`.
  core::ExperimentResult run(SpanLog& log, Counters& c) {
    const std::uint64_t generation0 = system->topology().generation();
    activateFaults();
    metrics->scraper().start();
    system->bmc().startPeriodicSampling(units::seconds(5.0));
    trainer->start([this](const dl::TrainingResult& r) {
      training = r;
      finished = true;
      metrics->scraper().scrapeOnce();
      metrics->scraper().stop();
      system->bmc().stopPeriodicSampling();
      if (monitor) monitor->stop();
      if (orchestrator) orchestrator->noteRunEnded();
    });
    log.time("sim.run", [&] {
      Simulator& sim = system->sim();
      if (options.watchdog > 0.0) {
        sim.runUntil(options.watchdog);
        if (!finished) throw std::runtime_error("watchdog: trainer hung");
      }
      sim.run();
    });
    if (!finished) throw std::runtime_error("simulation drained unfinished");

    return log.time("telemetry.summarize", [&] {
      metrics->finalize();
      core::ExperimentResult r;
      r.config = config;
      r.benchmark = model.name;
      r.training = training;
      r.metrics = metrics;
      const SimTime end =
          std::max(0.0, training.simulated_time - training.checkpoint_time);
      const SimTime from = end * 0.15;
      r.gpu_util_pct = metrics->series("gpu_util_pct").meanInWindow(from, end);
      r.gpu_mem_access_pct =
          metrics->series("gpu_mem_access_pct").meanInWindow(from, end);
      r.gpu_mem_util_pct =
          metrics->series("gpu_mem_util_pct").meanInWindow(from, end);
      r.cpu_util_pct = metrics->series("cpu_util_pct").meanInWindow(from, end);
      r.host_mem_util_pct =
          metrics->series("host_mem_util_pct").meanInWindow(from, end);
      r.falcon_pcie_gbs =
          metrics->series("falcon_pcie_gbs").meanInWindow(from, end);

      c.iterations = training.iterations_run;
      c.events = system->sim().eventsExecuted();
      c.flows = system->network().flowsStarted();
      c.recomputes = system->network().rateRecomputations();
      c.solves = system->network().componentSolves();
      c.ops = trainer->communicator().collectivesCompleted();
      for (const devices::Gpu* g : gpus) c.kernels += g->kernelsLaunched();
      c.scrapes = metrics->scraper().scrapeCount();
      c.generations = system->topology().generation() - generation0;
      return r;
    });
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double perIter(std::uint64_t n, const Counters& c) {
  return ratio(static_cast<double>(n), static_cast<double>(c.iterations));
}

struct Ledger {
  SpanLog log;
  Report rep;
  std::uint64_t seed = 1;

  // Deterministic counts, from the first pass of each workload.
  Counters matrix_counts;
  bool matrix_counted = false;
  double records_per_iter = 0.0;
  double chrome_mb = 0.0;
  std::int64_t restores = 0, lost = 0, run_iters = 0;
  std::uint64_t detections = 0, retries = 0, flows_failed = 0;
  std::uint64_t generations = 0;
  int forked = 0, tails = 0, watchdog_trips = 0;
  int matrix_passes = 0, analyze_passes = 0, sweep_passes = 0;

  void check(const std::string& why) {
    if (!why.empty()) rep.failures.push_back(why);
  }

  // --- matrix_untraced ----------------------------------------------------

  void matrixPass(const std::vector<dl::ModelSpec>& models) {
    const core::ExperimentOptions options = matrixOptions(seed);
    Counters pass;
    for (const dl::ModelSpec& model : models) {
      for (const core::SystemConfig c : core::allConfigs()) {
        log.nextRun();
        std::string why;
        try {
          const core::ExperimentResult ref =
              log.time("core.experiment_run", [&] {
                return core::Experiment::run(c, model, options);
              });
          Counters counts;
          const core::ExperimentResult replica =
              log.time("replica.experiment", [&] {
                Replica stack(log, c, model, options);
                return stack.run(log, counts);
              });
          why = checkTraining(replica);
          if (why.empty() && digestOf(replica) != digestOf(ref)) {
            why = "replica digest differs from Experiment::run for " +
                  model.name + " on " + core::toString(c);
          }
          pass.add(counts);
        } catch (const std::exception& e) {
          why = std::string("threw: ") + e.what();
        }
        rep.tally(why);
      }
    }
    if (!matrix_counted) {
      matrix_counts = pass;
      matrix_counted = true;
    }
    ++matrix_passes;
  }

  // --- analyze_export -----------------------------------------------------

  void analyzePass(const dl::ModelSpec& model) {
    std::shared_ptr<telemetry::analysis::RunAnalysis> base;
    std::int64_t records = 0, iters = 0;
    double mb = 0.0;
    for (const core::SystemConfig c : analyzeConfigs()) {
      log.nextRun();
      std::string why;
      try {
        const core::ExperimentResult plain =
            log.time("telemetry.untraced_run", [&] {
              return core::Experiment::run(c, model,
                                           analyzeOptions(seed, false));
            });
        core::ExperimentOptions traced_options = analyzeOptions(seed, false);
        traced_options.trace = true;
        core::ExperimentResult traced = log.time("telemetry.traced_run", [&] {
          return core::Experiment::run(c, model, traced_options);
        });
        if (!traced.profiler) throw std::runtime_error("no profile recorded");
        traced.analysis = log.time("telemetry.analyze", [&] {
          return std::make_shared<telemetry::analysis::RunAnalysis>(
              telemetry::analysis::analyzeProfile(*traced.profiler,
                                                  model.name));
        });
        const std::size_t bytes = log.time("telemetry.chrome_export", [&] {
          return traced.profiler->chromeTrace().dump(-1).size();
        });
        log.time("telemetry.metrics_export", [&] {
          return traced.metrics->prometheusText().size() +
                 traced.metrics->jsonlDump().size();
        });
        if (base) {
          log.time("telemetry.diff", [&] {
            const auto d =
                telemetry::analysis::diffRuns(*base, *traced.analysis);
            return telemetry::analysis::toJson(d).dump(2).size() +
                   telemetry::analysis::report(d).size();
          });
        }
        base = traced.analysis;
        records += static_cast<std::int64_t>(traced.profiler->recordCount());
        iters += traced.training.iterations_run;
        mb += static_cast<double>(bytes) / 1e6;
        why = checkTraining(traced);
        if (why.empty()) why = checkAnalysis(traced);
        if (why.empty() && digestOf(traced) != digestOf(plain)) {
          why = "tracing changed the simulated results on " +
                std::string(core::toString(c));
        }
      } catch (const std::exception& e) {
        why = std::string("threw: ") + e.what();
      }
      rep.tally(why);
    }
    if (analyze_passes++ == 0) {
      records_per_iter = ratio(static_cast<double>(records),
                               static_cast<double>(iters));
      chrome_mb = mb / static_cast<double>(analyzeConfigs().size());
    }
  }

  // --- fault_fork_sweep ---------------------------------------------------

  void sweepPass(const dl::ModelSpec& model,
                 const std::vector<core::ExperimentSpec>& specs) {
    const bool first = sweep_passes++ == 0;
    log.nextRun();
    // The program's own sweep, for the digests the fork path must match.
    core::SweepOptions so;
    so.jobs = 1;
    const std::vector<core::SweepRun> reference =
        log.time("core.sweep_run",
                 [&] { return core::SweepRunner(so).run(specs); });

    const core::ExperimentOptions donor_options = sweepBaseOptions(seed);
    std::unique_ptr<core::SimSnapshot> snap;
    try {
      log.time("core.prefix", [&] {
        core::WarmedExperiment warmed(kSweepConfig, model, donor_options);
        snap = std::make_unique<core::SimSnapshot>(
            log.time("core.snapshot", [&] { return warmed.snapshot(); }));
      });
    } catch (const std::exception& e) {
      check(std::string("warm prefix threw: ") + e.what());
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
      const core::ExperimentSpec& spec = specs[i];
      std::string why;
      bool fork = snap != nullptr &&
                  core::earliestFaultTime(spec.options.faults) > snap->sim.now;
      try {
        const core::ExperimentResult r =
            fork ? log.time("core.fork_resume", [&] {
                     return core::WarmedExperiment::resumeFromSnapshot(
                         spec.config, model, spec.options, *snap);
                   })
                 : log.time("core.cold_run",
                            [&] { return core::runExperimentSpec(spec); });
        why = checkTraining(r);
        if (why.empty()) why = checkFlowConservation(r);
        if (why.empty() && (!reference[i].status.ok ||
                            digestOf(r) != digestOf(reference[i].result))) {
          why = "fork path digest differs from SweepRunner";
        }
        if (first) {
          restores += r.training.restores;
          lost += r.training.lost_iterations;
          run_iters += r.training.iterations_run;
          detections += r.recovery.detections;
          retries += r.recovery.reattach_retries;
          flows_failed += r.recovery.flows_failed;
        }
      } catch (const std::exception& e) {
        why = std::string("threw: ") + e.what();
        if (first && why.find("watchdog") != std::string::npos) {
          ++watchdog_trips;
        }
        fork = false;
      }
      if (first) {
        ++tails;
        forked += fork ? 1 : 0;
      }
      rep.tally(why.empty() ? why : spec.name + ": " + why);
    }

    if (!first) return;
    // The continuous run of each spec, replicated to read the topology
    // generations its faults advance (each one invalidates the route
    // cache), and checked against Experiment::run.
    for (const core::ExperimentSpec& spec : specs) {
      log.nextRun();
      std::string why;
      try {
        const core::ExperimentResult ref = log.time("core.experiment_run", [&] {
          return core::Experiment::run(spec.config, model, spec.options);
        });
        Counters counts;
        const core::ExperimentResult replica =
            log.time("replica.experiment", [&] {
              Replica stack(log, spec.config, model, spec.options);
              return stack.run(log, counts);
            });
        if (digestOf(replica) != digestOf(ref)) {
          why = spec.name + ": faulted replica digest differs from "
                "Experiment::run";
        }
        generations += counts.generations;
      } catch (const std::exception& e) {
        why = spec.name + ": replica threw: " + e.what();
      }
      check(why);
    }
  }

  /// Topology::route on a fresh generation vs routeCached, per lookup
  /// (us), over every ordered pair of the sweep system's training GPUs.
  std::pair<double, double> routeTimes() {
    constexpr const char* kProbe = "fabric.route_probe";
    constexpr int kReps = 31;
    constexpr int kWarmRounds = 20;
    core::ComposableSystem system(kSweepConfig);
    std::vector<fabric::NodeId> nodes;
    for (const devices::Gpu* g : system.trainingGpus()) {
      nodes.push_back(g->node());
    }
    const fabric::Topology& topo = system.topology();
    std::size_t routed = 0;
    const auto everyPair = [&](auto&& lookup) {
      for (const fabric::NodeId a : nodes) {
        for (const fabric::NodeId b : nodes) {
          if (a != b && lookup(a, b)) ++routed;
        }
      }
    };
    log.time(kProbe, [&] {
      for (int rep = 0; rep < kReps; ++rep) {
        system.topology().invalidateRoutes();
        log.time("fabric.route_cold", [&] {
          everyPair(
              [&](auto a, auto b) { return topo.route(a, b).has_value(); });
        });
        log.time("fabric.route_warm", [&] {
          for (int round = 0; round < kWarmRounds; ++round) {
            everyPair([&](auto a, auto b) {
              return topo.routeCached(a, b).has_value();
            });
          }
        });
      }
    });
    const std::size_t pairs = nodes.size() * (nodes.size() - 1);
    if (routed != pairs * kReps * (1 + kWarmRounds)) {
      check("route probe: some training-GPU pairs have no route");
    }
    const double us_per = 1e3 / static_cast<double>(pairs);
    return {us_per * median(log.ms("fabric.route_cold", kProbe)),
            us_per / kWarmRounds * median(log.ms("fabric.route_warm", kProbe))};
  }

  void metrics(std::pair<double, double> route_us) {
    const Counters& m = matrix_counts;
    // Matrix host times: per-pass totals, median over the passes.
    const auto matrixTotal = [&](const char* span) {
      return median(log.totalsPerRoot(span, kMatrix));
    };
    const double ref_ms = matrixTotal("core.experiment_run");
    const double replica_ms = matrixTotal("replica.experiment");
    const double sim_ms = matrixTotal("sim.run");
    const auto med = [&](const char* span, const char* root) {
      return median(log.ms(span, root));
    };
    const double untraced = med("telemetry.untraced_run", kAnalyze);
    const double traced = med("telemetry.traced_run", kAnalyze);
    const double lost_frac =
        ratio(static_cast<double>(lost), static_cast<double>(run_iters + lost));
    const double flows_per_op =
        ratio(static_cast<double>(m.flows), static_cast<double>(m.ops));

    rep.metrics = {
        {"sim.events_per_iter", perIter(m.events, m), "count", ""},
        {"sim.host_ns_per_event",
         1e6 * ratio(sim_ms, static_cast<double>(m.events)), "ns",
         "Simulator::run host time / events"},
        {"sim.run_share_pct", 100.0 * ratio(sim_ms, replica_ms), "%",
         "Simulator::run share of replica host time"},
        {"fabric.flows_per_iter", perIter(m.flows, m), "count", ""},
        {"fabric.recomputes_per_iter", perIter(m.recomputes, m), "count", ""},
        {"fabric.solves_per_iter", perIter(m.solves, m), "count", ""},
        {"fabric.solves_per_recompute",
         ratio(static_cast<double>(m.solves),
               static_cast<double>(m.recomputes)),
         "count", ""},
        {"fabric.flows_failed", static_cast<double>(flows_failed), "count",
         "per suite"},
        {"fabric.topology_generations",
         ratio(static_cast<double>(generations), tails), "count",
         "per faulted run"},
        {"fabric.route_cold_us", route_us.first, "us", "per route()"},
        {"fabric.route_warm_us", route_us.second, "us", "per routeCached()"},
        {"collectives.ops_per_iter", perIter(m.ops, m), "count", ""},
        {"collectives.flows_per_op", flows_per_op, "count",
         "all fabric flows / collective ops"},
        {"devices.kernels_per_iter", perIter(m.kernels, m), "count", ""},
        {"dl.graph_load_ms", med("dl.graph_load", "setup"), "ms",
         "one graph: resolve"},
        {"dl.trainer_build_ms", med("dl.trainer_build", kMatrix), "ms", ""},
        {"dl.restores", static_cast<double>(restores), "count", "per suite"},
        {"dl.lost_iter_frac", lost_frac, "ratio", "lost / (run + lost)"},
        {"falcon.detections", static_cast<double>(detections), "count",
         "per suite"},
        {"falcon.reattach_retries", static_cast<double>(retries), "count",
         "per suite"},
        {"telemetry.scrapes_per_iter", perIter(m.scrapes, m), "count", ""},
        {"telemetry.records_per_iter", records_per_iter, "count", ""},
        {"telemetry.traced_run_ms", traced, "ms", "BERT-L pair"},
        {"telemetry.untraced_run_ms", untraced, "ms", "BERT-L pair"},
        {"telemetry.trace_overhead_x", ratio(traced, untraced), "x", ""},
        {"telemetry.analyze_ms", med("telemetry.analyze", kAnalyze), "ms", ""},
        {"telemetry.chrome_export_ms", med("telemetry.chrome_export", kAnalyze),
         "ms", ""},
        {"telemetry.chrome_export_mb", chrome_mb, "MB", ""},
        {"telemetry.metrics_export_ms",
         med("telemetry.metrics_export", kAnalyze), "ms", ""},
        {"telemetry.diff_ms", med("telemetry.diff", kAnalyze), "ms", ""},
        {"core.system_build_ms", med("core.system_build", kMatrix), "ms", ""},
        {"core.prefix_ms", med("core.prefix", kFaultSweep), "ms", ""},
        {"core.snapshot_ms", med("core.snapshot", kFaultSweep), "ms", ""},
        {"core.fork_resume_ms", med("core.fork_resume", kFaultSweep), "ms", ""},
        {"core.fork_frac", ratio(forked, tails), "ratio", ""},
        {"core.watchdog_trips", static_cast<double>(watchdog_trips), "count",
         "per suite"},
        {"bench.span_overhead_pct", 100.0 * ratio(replica_ms - ref_ms, ref_ms),
         "%", "replica with spans vs Experiment::run"},
    };
  }
};

}  // namespace

Report runLedger(const RunArgs& args, const std::string& spans_path) {
  const Clock::time_point start = Clock::now();
  Ledger ledger;
  ledger.seed = args.seed;

  // dl.graph_load_ms: one registry resolve of a Table II graph file.
  std::vector<dl::ModelSpec> zoo;
  std::vector<double> load_ms;
  ledger.log.time("setup", [&] {
    for (int rep = 0; rep < 7; ++rep) {
      for (const std::string& ref : tableIIRefs()) {
        dl::ModelSpec m;
        const Status s = ledger.log.time("dl.graph_load", [&] {
          return dl::WorkloadRegistry::instance().resolve(ref, &m);
        });
        if (!s.ok) throw std::runtime_error(s.toString());
        if (rep == 0) zoo.push_back(std::move(m));
      }
    }
  });
  const dl::ModelSpec& bert_large = zoo[kBertLargeIndex];
  const dl::ModelSpec& resnet = zoo[1];
  const double boundary = measureBoundary(resnet, args.seed);
  const std::vector<core::ExperimentSpec> specs =
      faultSuite(args.seed, boundary);

  SpanLog& log = ledger.log;
  const std::function<void()> passes[] = {
      [&] { log.time(kMatrix, [&] { ledger.matrixPass(zoo); }); },
      [&] { log.time(kAnalyze, [&] { ledger.analyzePass(bert_large); }); },
      [&] { log.time(kFaultSweep, [&] { ledger.sweepPass(resnet, specs); }); },
  };
  const auto& names = workloadNames();
  const std::size_t own = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), args.workload) - names.begin());

  // The named workload's ledger first, every other one once, then the
  // named one again while another pass of its average length fits.
  const Clock::time_point own0 = Clock::now();
  passes[own]();
  const double own_s =
      std::chrono::duration<double>(Clock::now() - own0).count();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != own) passes[i]();
  }
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed + own_s > args.seconds) break;
    passes[own]();
  }

  ledger.metrics(ledger.routeTimes());

  Report rep = std::move(ledger.rep);
  char line[160];
  std::snprintf(line, sizeof(line),
                "ledger passes: matrix %d, analyze %d, sweep %d; %.1f s",
                ledger.matrix_passes, ledger.analyze_passes,
                ledger.sweep_passes,
                std::chrono::duration<double>(Clock::now() - start).count());
  rep.lines.push_back(line);
  if (!spans_path.empty()) ledger.log.write(spans_path);
  return rep;
}

}  // namespace e2ebench
