// composim: scrape loop + export surface over the metrics registry.
//
// MetricsScraper polls a MetricsRegistry on a fixed simulated-time
// interval — the fleet-monitoring scrape — appending every instrument's
// current value to a named TimeSeries. Registered collector callbacks run
// first on each pass, pulling fresh values out of the subsystems
// (telemetry/collectors.hpp has the reusable ones), and the AlertEngine,
// when attached, is evaluated right after the snapshot, so alert detection
// latency is one scrape interval at most.
//
// Series naming: `family` for an unlabeled instrument,
// `family{k="v",...}` for labeled ones; histograms additionally scrape
// `_count`, `_sum`, `_p50`, `_p95` and `_p99` sub-series so latency
// percentiles are plottable over time.
//
// MetricsPipeline bundles registry + scraper + alert engine into the one
// shared object an ExperimentResult hands back; finalize() detaches it
// from the Simulator (like Profiler::finalize) so it may outlive the run
// that produced it.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "sim/simulator.hpp"
#include "telemetry/alert_engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/time_series.hpp"

namespace composim::telemetry {

/// Converts a cumulative counter probe into a per-interval rate:
/// sample_i = (counter_i - counter_{i-1}) / (t_i - t_{i-1}) * scale.
/// A zero-length interval (two polls at the same simulated instant, e.g. a
/// final scrape landing on a scheduled tick) cannot be differentiated;
/// the probe holds the previous rate instead of dividing by zero.
class RateProbe {
 public:
  RateProbe(Simulator& sim, std::function<double()> cumulative,
            double scale = 1.0)
      : sim_(sim), cumulative_(std::move(cumulative)), scale_(scale) {}

  double operator()();

  /// Differentiation state (baseline + held rate): a forked run's probe
  /// resumes rate computation exactly where the warmed prefix left off
  /// instead of re-priming at the fork point.
  struct State {
    double last_value = 0.0;
    double last_rate = 0.0;
    SimTime last_time = 0.0;
    bool primed = false;
  };

  State state() const { return st_; }
  void setState(const State& st) { st_ = st; }

 private:
  Simulator& sim_;
  std::function<double()> cumulative_;
  double scale_;
  State st_;
};

class MetricsScraper {
 public:
  MetricsScraper(Simulator& sim, MetricsRegistry& registry, SimTime interval);

  MetricsScraper(const MetricsScraper&) = delete;
  MetricsScraper& operator=(const MetricsScraper&) = delete;

  SimTime interval() const { return interval_; }

  /// Register a pull callback run before every snapshot (subsystem state
  /// -> registry instruments). Collectors keep no state of their own:
  /// what they carry from one scrape to the next lives in the probes and
  /// baselines below, which the scraper owns and State carries.
  void addCollector(std::function<void()> update);

  /// A rate probe over `cumulative`, owned by the scraper. Throws
  /// std::logic_error after finalize().
  RateProbe& rateProbe(std::function<double()> cumulative, double scale = 1.0);
  /// A counter baseline a collector differences by hand (the BMC's
  /// accumulated error counts), owned by the scraper; starts at 0.
  double& counterBaseline();

  /// Evaluate `engine` after every scrape (not owned).
  void setAlertEngine(AlertEngine* engine) { alerts_ = engine; }

  void start();
  void stop() { running_ = false; }
  /// Stop AND cancel the pending tick event, so a draining simulation
  /// quiesces at the stop point instead of running the clock forward to
  /// the stale tick's no-op firing. Used at the warm-prefix pause
  /// boundary, where the drained clock value is observable (the resumed
  /// scrape grid restarts from it); plain stop() keeps the historical
  /// drain behavior for end-of-run teardown.
  void stopAndCancelTick();
  bool running() const { return running_; }
  /// One collector + snapshot + alert pass at the current simulated time.
  void scrapeOnce();

  const TimeSeries& series(const std::string& name) const;
  bool hasSeries(const std::string& name) const { return series_.count(name) > 0; }
  std::vector<std::string> seriesNames() const;
  std::size_t scrapeCount() const { return scrapes_; }

  /// JSONL time-series dump: one compact JSON object per sample,
  /// `{"metric": <series name>, "t": <sim seconds>, "value": <v>}`,
  /// series in name order, samples in time order. Deterministic.
  std::string jsonlDump() const;
  Status writeJsonl(const std::string& path) const;

  /// Detach from the Simulator; scraping stops and the object may outlive
  /// the system that produced the series.
  void finalize();

  /// Scrape-history snapshot: every TimeSeries, the scrape counter and
  /// the rate probes' and counter baselines' states in creation order.
  /// A fork re-registers the same collectors against its own subsystems,
  /// which recreates the probes and baselines in the same order, and then
  /// restores this. Valid only while stopped.
  struct State {
    std::map<std::string, TimeSeries> series;
    std::size_t scrapes = 0;
    std::vector<RateProbe::State> probes;
    std::vector<double> baselines;
  };

  State state() const;
  /// Throws std::logic_error while scraping or when the probe or baseline
  /// count differs from `st`'s.
  void setState(const State& st);

 private:
  void tick();
  TimeSeries& seriesFor(const std::string& name);

  Simulator* sim_;  // null after finalize()
  MetricsRegistry& registry_;
  SimTime interval_;
  bool running_ = false;
  EventId pending_tick_ = kInvalidEvent;
  std::size_t scrapes_ = 0;
  std::vector<std::function<void()>> collectors_;
  // Deques: collectors hold references that must survive later creations.
  std::deque<RateProbe> probes_;
  std::deque<double> baselines_;
  AlertEngine* alerts_ = nullptr;
  std::map<std::string, TimeSeries> series_;
};

/// Registry + scraper + alert engine, constructed together per experiment.
class MetricsPipeline {
 public:
  MetricsPipeline(Simulator& sim, SimTime scrapeInterval)
      : alerts_(registry_), scraper_(sim, registry_, scrapeInterval) {
    scraper_.setAlertEngine(&alerts_);
  }

  MetricsPipeline(const MetricsPipeline&) = delete;
  MetricsPipeline& operator=(const MetricsPipeline&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  MetricsScraper& scraper() { return scraper_; }
  const MetricsScraper& scraper() const { return scraper_; }
  AlertEngine& alerts() { return alerts_; }
  const AlertEngine& alerts() const { return alerts_; }

  // Convenience pass-throughs (what result consumers actually touch).
  const TimeSeries& series(const std::string& name) const {
    return scraper_.series(name);
  }
  bool hasSeries(const std::string& name) const {
    return scraper_.hasSeries(name);
  }
  std::string prometheusText() const { return registry_.prometheusText(); }
  std::string jsonlDump() const { return scraper_.jsonlDump(); }
  Status writePrometheus(const std::string& path) const;
  Status writeJsonl(const std::string& path) const {
    return scraper_.writeJsonl(path);
  }

  void finalize() { scraper_.finalize(); }

 private:
  MetricsRegistry registry_;
  AlertEngine alerts_;
  MetricsScraper scraper_;
};

}  // namespace composim::telemetry
