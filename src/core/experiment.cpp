#include "core/experiment.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "telemetry/collectors.hpp"

namespace composim::core {

SimTime earliestFaultTime(const FaultsConfig& faults) {
  SimTime t = std::numeric_limits<SimTime>::infinity();
  for (const auto& f : faults.gpu_falloffs) t = std::min(t, f.at);
  for (const auto& s : faults.ecc_storms) t = std::min(t, s.at);
  for (const auto& h : faults.host_port_flaps) t = std::min(t, h.at);
  return t;
}

namespace {

/// One experiment's full simulation stack. Shared by the continuous path
/// (Experiment::run) and the phased warm-prefix paths (WarmedExperiment):
/// construction wires every component and collector but starts nothing,
/// so a fork target can be restored into before any event is scheduled
/// (Simulator::setState requires an empty queue).
struct Stack {
  SystemConfig config;
  dl::ModelSpec model;
  ExperimentOptions options;

  ComposableSystem system;
  std::vector<devices::Gpu*> gpus;
  std::shared_ptr<telemetry::Profiler> profiler;
  std::unique_ptr<dl::Trainer> trainer;
  std::unique_ptr<fabric::FaultInjector> injector;
  std::unique_ptr<falcon::HealthMonitor> monitor;
  std::unique_ptr<RecoveryOrchestrator> orchestrator;
  std::shared_ptr<telemetry::MetricsPipeline> metrics;

  dl::TrainingResult training;
  bool finished = false;

  Stack(SystemConfig cfg, const dl::ModelSpec& m, ExperimentOptions opts)
      : config(cfg), model(m), options(std::move(opts)), system(cfg) {
    gpus = system.trainingGpus();

    // Install the profiler before any component is built so
    // construction-time flows (if any) and the first iteration are
    // captured. Analysis consumes the trace, so it implies tracing.
    if (options.analysis) options.trace = true;
    if (options.trace) {
      profiler = std::make_shared<telemetry::Profiler>(system.sim());
      system.sim().setProfiler(profiler.get());
    }

    trainer = std::make_unique<dl::Trainer>(
        system.sim(), system.network(), system.topology(), gpus, system.cpu(),
        system.hostMemory(), system.trainingStorage(), model,
        dl::datasetFor(model), options.trainer);

    // Recovery stack (fault model -> health monitor -> orchestrator),
    // built only when a fault schedule is present.
    if (options.faults.enabled) {
      const FaultsConfig& faults = options.faults;
      // Pre-install spares in the free Falcon slots; quarantined devices
      // free their slots but are never reused.
      for (int i = 0; i < faults.spare_gpus &&
                      i < static_cast<int>(kSpareGpuSlots.size());
           ++i) {
        system.installSpareGpu(kSpareGpuSlots[static_cast<std::size_t>(i)]);
      }
      system.chassis().setTransientAttachFailureRate(
          faults.attach_failure_rate, faults.seed + 1);
      injector = std::make_unique<fabric::FaultInjector>(
          system.sim(), system.topology(), system.network(), faults.seed);
      monitor = std::make_unique<falcon::HealthMonitor>(
          system.sim(), system.chassis(), system.bmc());
      monitor->setErrorStormThreshold(faults.error_storm_threshold);
      orchestrator = std::make_unique<RecoveryOrchestrator>(
          system, *monitor, *trainer, faults.policy, faults.seed + 2);
    }

    // Metrics pipeline: shared subsystem collectors scraped on the sample
    // interval, with SLO alert evaluation after every scrape. Collector
    // registration order is load-bearing: a fork restores the scraper's
    // rate probes and counter baselines by creation order.
    const SimTime scrape_interval = options.metrics.scrape_interval > 0.0
                                        ? options.metrics.scrape_interval
                                        : options.sample_interval;
    metrics = std::make_shared<telemetry::MetricsPipeline>(system.sim(),
                                                           scrape_interval);
    telemetry::MetricsScraper& scraper = metrics->scraper();
    telemetry::MetricsRegistry& registry = metrics->registry();
    telemetry::collectGpus(scraper, registry, {gpus.begin(), gpus.end()});
    telemetry::collectHostCpu(scraper, registry, system.cpu());
    ComposableSystem* sys = &system;
    telemetry::collectFalconPcie(scraper, registry, [sys] {
      return static_cast<double>(sys->falconGpuPortBytes());
    });
    telemetry::collectFabricLinks(
        scraper, registry, system.topology(),
        telemetry::hostAdapterLinks(system.topology()));
    telemetry::collectBmc(scraper, registry, system.bmc());
    telemetry::observeTrainer(registry, *trainer);
    for (const std::string& rule : options.metrics.alerts) {
      metrics->alerts().addRule(rule);
    }
    // Alert transitions interleave with the fault/recovery history in the
    // BMC event log, the way a fleet pager would page the operator.
    falcon::Bmc* bmc = &system.bmc();
    metrics->alerts().subscribe([bmc](const telemetry::Alert& a) {
      bmc->logEvent(a.firing ? "alert" : "info",
                    std::string("slo ") + (a.firing ? "firing" : "resolved") +
                        ": " + a.rule + " on " + a.series);
    });
  }

  /// Schedule the fault timeline and start the health monitor. Separate
  /// from construction so the warm-prefix paths can run a fault-free
  /// prefix, drain to the quiescent point (scheduled faults are closures a
  /// snapshot cannot capture), and activate the schedule only on resume.
  /// Fault times are absolute simulated times; the injector API takes
  /// delays, so activation after a prefix rebases against sim.now().
  /// Faults whose time already passed are dropped (the warm-prefix paths
  /// reject such schedules up front).
  void activateFaults() {
    if (!options.faults.enabled) return;
    const FaultsConfig& faults = options.faults;
    const SimTime now = system.sim().now();
    for (const auto& f : faults.gpu_falloffs) {
      if (f.at < now) continue;
      const auto& g =
          system.falconGpus().at(static_cast<std::size_t>(f.gpu_index));
      const auto slot = system.slotOfGpu(g.get());
      const auto& info = system.chassis().slot(*slot);
      injector->scheduleDeviceFalloff(info.link_up, info.link_down,
                                      f.at - now);
    }
    for (const auto& s : faults.ecc_storms) {
      if (s.at < now) continue;
      const auto& g =
          system.falconGpus().at(static_cast<std::size_t>(s.gpu_index));
      const auto slot = system.slotOfGpu(g.get());
      injector->scheduleErrorBurst(system.chassis().slot(*slot).link_up,
                                   s.at - now, s.errors);
    }
    for (const auto& h : faults.host_port_flaps) {
      if (h.at < now) continue;
      const auto& port = system.chassis().hostPort(h.port);
      injector->scheduleHostPortFlap(port.link_in, port.link_out, h.at - now,
                                     h.downtime);
    }
    monitor->start(faults.health_poll_interval);
  }

  /// The periodic activity a run needs while training advances. Called at
  /// start AND again after a warm-prefix pause — cold and forked tails
  /// issue the identical call sequence, which keeps them byte-identical.
  void startTelemetry() {
    metrics->scraper().start();
    system.bmc().startPeriodicSampling(units::seconds(5.0));
  }

  /// Open the run-level profiler span. Explicit begin/end (not the RAII
  /// Span) because the phased paths close it in a different scope — a
  /// forked tail closes a span its donor's prefix opened.
  void beginRunSpan() {
    if (profiler) {
      const ProfileKey experiment = profiler->intern("experiment");
      profiler->beginSpan(experiment, experiment, profiler->intern(model.name),
                          {{"config", toString(config)}});
    }
  }

  std::function<void(const dl::TrainingResult&)> doneCallback() {
    return [this](const dl::TrainingResult& r) {
      training = r;
      finished = true;
      // Periodic activities would otherwise keep the event queue alive
      // forever; training completion ends the measurement.
      metrics->scraper().scrapeOnce();
      metrics->scraper().stop();
      system.bmc().stopPeriodicSampling();
      if (monitor) monitor->stop();
      // With the monitor stopped, an outage still in effect can never be
      // observed recovering — close those incidents honestly now.
      if (orchestrator) orchestrator->noteRunEnded();
    };
  }

  /// Drain the simulation to completion and summarize, exactly as the
  /// original single-shot Experiment::run did.
  ExperimentResult finishResult() {
    if (options.watchdog > 0.0) {
      // Liveness guard: a hung gang keeps periodic events (polls, scrapes)
      // alive forever, so an unbounded run() would never return. Advance
      // to the deadline and convert "still not finished" into a typed
      // liveness failure the chaos oracles can match on.
      system.sim().runUntil(options.watchdog);
      if (!finished) {
        throw std::runtime_error(
            "watchdog: simulation still live at t=" +
            std::to_string(options.watchdog) +
            "s without the trainer finishing (hung gang?)");
      }
      // Finished: drain the (now self-terminating) remainder of the queue.
      system.sim().run();
    } else {
      system.sim().run();
    }
    if (!finished) {
      throw std::runtime_error(
          "Experiment: simulation drained without finishing");
    }
    if (profiler) {
      profiler->endSpan(profiler->intern("experiment"));
      // Detach: the Profiler outlives `system` inside the result.
      profiler->finalize();
      system.sim().setProfiler(nullptr);
    }

    ExperimentResult result;
    result.config = config;
    result.benchmark = model.name;
    result.training = training;
    // Detach: the pipeline outlives `system` inside the result.
    metrics->finalize();
    result.metrics = metrics;
    result.profiler = profiler;
    if (options.analysis && profiler) {
      result.analysis = std::make_shared<telemetry::analysis::RunAnalysis>(
          telemetry::analysis::analyzeProfile(*profiler, model.name));
    }

    WorkCounters& work = result.work;
    work.events = system.sim().eventsExecuted();
    work.flows = system.network().flowsStarted();
    work.recomputes = system.network().rateRecomputations();
    work.solves = system.network().componentSolves();
    for (const devices::Gpu* g : gpus) work.kernels += g->kernelsLaunched();
    work.collective_ops = trainer->communicator().collectivesCompleted();
    if (profiler) work.profiler_records = profiler->recordCount();

    if (orchestrator) {
      result.recovery.enabled = true;
      result.recovery.faults_injected = injector->faultsInjected();
      result.recovery.detections = monitor->detections();
      result.recovery.reattach_retries = orchestrator->reattachRetries();
      result.recovery.degradations = orchestrator->degradations();
      result.recovery.final_gang_size = orchestrator->gangSize();
      result.recovery.mean_mttr = orchestrator->meanMttr();
      result.recovery.terminal_state = orchestrator->terminalState();
      result.recovery.quarantined_slots = orchestrator->quarantinedSlots();
      result.recovery.incidents = orchestrator->incidents();
      result.recovery.fault_history = injector->history();
      result.recovery.detections_log = monitor->log();
      result.recovery.flows_started = system.network().flowsStarted();
      result.recovery.flows_completed = system.network().flowsCompleted();
      result.recovery.flows_failed = system.network().flowsFailed();
      result.recovery.flows_active_at_end = system.network().activeFlows();
    }

    // Steady-state window: skip the priming phase and exclude checkpoint
    // time (the final checkpoint's idle tail would otherwise dominate the
    // means of short capped runs).
    const SimTime end =
        std::max(0.0, training.simulated_time - training.checkpoint_time);
    const SimTime from = end * 0.15;
    result.gpu_util_pct =
        metrics->series("gpu_util_pct").meanInWindow(from, end);
    result.gpu_mem_access_pct =
        metrics->series("gpu_mem_access_pct").meanInWindow(from, end);
    result.gpu_mem_util_pct =
        metrics->series("gpu_mem_util_pct").meanInWindow(from, end);
    result.cpu_util_pct =
        metrics->series("cpu_util_pct").meanInWindow(from, end);
    result.host_mem_util_pct =
        metrics->series("host_mem_util_pct").meanInWindow(from, end);
    result.falcon_pcie_gbs =
        metrics->series("falcon_pcie_gbs").meanInWindow(from, end);
    return result;
  }
};

}  // namespace

ExperimentResult Experiment::run(SystemConfig config, const dl::ModelSpec& model,
                                 ExperimentOptions options) {
  Stack stack(config, model, std::move(options));
  stack.activateFaults();
  stack.startTelemetry();
  stack.beginRunSpan();
  stack.trainer->start(stack.doneCallback());
  return stack.finishResult();
}

ExperimentResult Experiment::run(SystemConfig config,
                                 ExperimentOptions options) {
  const dl::ModelSpec model = dl::workload(options.workload);
  return run(config, model, std::move(options));
}

double Experiment::trainingTimeChangePct(const ExperimentResult& result,
                                         const ExperimentResult& baseline) {
  const double base = baseline.training.extrapolated_total_time;
  if (base <= 0.0) return 0.0;
  return 100.0 * (result.training.extrapolated_total_time - base) / base;
}

struct WarmedExperiment::Impl {
  Stack stack;

  Impl(SystemConfig config, const dl::ModelSpec& model,
       ExperimentOptions options)
      : stack(config, model, std::move(options)) {}
};

WarmedExperiment::WarmedExperiment(SystemConfig config,
                                   const dl::ModelSpec& model,
                                   ExperimentOptions options) {
  if (options.warm_prefix <= 0) {
    throw std::invalid_argument("WarmedExperiment: warm_prefix must be > 0");
  }
  impl_ = std::make_unique<Impl>(config, model, std::move(options));
  Stack& stack = impl_->stack;

  // At the pause boundary, stop every periodic activity AND cancel its
  // pending tick so the queue drains right at the boundary (a stale
  // 5-second BMC tick would otherwise run the clock seconds past it and
  // leave a visible idle hole in the resumed scrape grid). In-flight
  // prefetch and H2D flows complete during the drain, and the stack
  // reaches the quiescent point where all state is plain data.
  stack.trainer->pauseAfter(stack.options.warm_prefix, [&stack] {
    stack.metrics->scraper().stopAndCancelTick();
    stack.system.bmc().stopAndCancelSampling();
  });
  stack.startTelemetry();
  stack.beginRunSpan();
  stack.trainer->start(stack.doneCallback());
  stack.system.sim().run();
  if (!stack.trainer->paused()) {
    throw std::runtime_error(
        "WarmedExperiment: run ended before the warm-prefix boundary (check "
        "warmPrefixApplicable)");
  }
  // Fault activation is deferred to the resume step, so the schedule is
  // only warm-prefixable when every injection lands strictly inside the
  // tail. warmPrefixApplicable() can't know the boundary's simulated time
  // up front; validate here and let callers fall back to a cold run.
  if (stack.options.faults.enabled &&
      earliestFaultTime(stack.options.faults) <= stack.system.sim().now()) {
    throw std::runtime_error(
        "WarmedExperiment: fault schedule injects at or before the "
        "warm-prefix boundary (t=" +
        std::to_string(stack.system.sim().now()) + "s); run cold instead");
  }
}

WarmedExperiment::~WarmedExperiment() = default;

SimSnapshot WarmedExperiment::snapshot() const {
  const Stack& stack = impl_->stack;
  ComposableSystem& system = const_cast<ComposableSystem&>(stack.system);

  SimSnapshot snap;
  snap.sim = system.sim().state();
  snap.topology = system.topology().state();
  snap.network = system.network().state();
  for (const auto& g : system.localGpus()) snap.local_gpus.push_back(g->state());
  for (const auto& g : system.falconGpus()) {
    snap.falcon_gpus.push_back(g->state());
  }
  snap.cpu = system.cpu().state();
  snap.local_nvme = system.localNvme().state();
  snap.falcon_nvme = system.falconNvme().state();
  snap.boot_ssd = system.bootSsd().state();
  snap.bmc = system.bmc().state();
  snap.communicator = stack.trainer->communicator().state();
  snap.pipeline = stack.trainer->pipeline().state();
  snap.trainer = stack.trainer->state();
  snap.registry = stack.metrics->registry().state();
  snap.scraper = stack.metrics->scraper().state();
  snap.alerts = stack.metrics->alerts().state();
  if (stack.profiler) {
    snap.traced = true;
    snap.profiler = stack.profiler->state();
  }
  return snap;
}

ExperimentResult WarmedExperiment::finish() {
  Stack& stack = impl_->stack;
  // The resume sequence — fault activation, telemetry restart, then the
  // next iteration — is the same call-for-call in the cold and fork paths.
  stack.activateFaults();
  stack.startTelemetry();
  stack.trainer->resumeTraining();
  return stack.finishResult();
}

ExperimentResult WarmedExperiment::resumeFromSnapshot(
    SystemConfig config, const dl::ModelSpec& model, ExperimentOptions options,
    const SimSnapshot& snap) {
  Stack stack(config, model, std::move(options));
  ComposableSystem& system = stack.system;

  // Restore order: clock and allocators first (so restored EventIds and
  // FlowIds continue the donor's sequences), then devices, then the
  // trainer bookkeeping that adopts — without re-allocating — the memory
  // the device restores already account.
  system.sim().setState(snap.sim);
  system.topology().restoreState(snap.topology);  // also rebinds route owner
  system.network().restoreState(snap.network);
  if (snap.local_gpus.size() != system.localGpus().size() ||
      snap.falcon_gpus.size() != system.falconGpus().size()) {
    throw std::logic_error(
        "WarmedExperiment::resumeFromSnapshot: GPU population mismatch "
        "(different SystemConfig than the donor?)");
  }
  for (std::size_t i = 0; i < snap.local_gpus.size(); ++i) {
    system.localGpus()[i]->restoreState(snap.local_gpus[i]);
  }
  for (std::size_t i = 0; i < snap.falcon_gpus.size(); ++i) {
    system.falconGpus()[i]->restoreState(snap.falcon_gpus[i]);
  }
  system.cpu().restoreState(snap.cpu);
  system.localNvme().restoreState(snap.local_nvme);
  system.falconNvme().restoreState(snap.falcon_nvme);
  system.bootSsd().restoreState(snap.boot_ssd);
  system.bmc().restoreState(snap.bmc);
  stack.trainer->communicator().restoreState(snap.communicator);
  stack.trainer->pipeline().restoreState(snap.pipeline);
  if (stack.profiler && snap.traced) stack.profiler->setState(snap.profiler);
  stack.metrics->registry().restoreState(snap.registry);
  stack.metrics->scraper().setState(snap.scraper);
  stack.metrics->alerts().setState(snap.alerts);
  stack.trainer->restoreRun(snap.trainer, stack.doneCallback());

  // Identical resume sequence to finish() above.
  stack.activateFaults();
  stack.startTelemetry();
  stack.trainer->resumeTraining();
  return stack.finishResult();
}

}  // namespace composim::core
