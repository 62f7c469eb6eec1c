// composim: labeled metrics registry (the Prometheus client stand-in).
//
// One MetricsRegistry per experiment holds every instrument the subsystem
// collectors publish: monotone Counters, last-value Gauges and fixed-bucket
// Histograms, each identified by a family name plus a sorted label set —
// exactly the data model a fleet monitoring stack scrapes. The registry is
// the single source the scraper (metrics_pipeline.hpp), the Prometheus
// text exposition and the alert engine all read from, replacing the
// per-bench probe lambdas and the one-off percentile math that used to
// live in dl/inference.cpp.
//
// Everything is simulated-time and allocation-deterministic: families and
// label sets iterate in lexicographic order, so two identical runs (or a
// serial and a parallel replay of the same sweep) export byte-identical
// text.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/units.hpp"

namespace composim::telemetry {

/// Label set: key/value pairs, canonicalized to ascending key order.
/// Duplicate keys are invalid_argument.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Sort-and-check canonical form used as the registry key.
Labels canonicalLabels(Labels labels);

/// Render as {k1="v1",k2="v2"} ("" for an empty set). Values are escaped
/// per the Prometheus exposition rules (backslash, quote, newline).
std::string labelsToString(const Labels& labels);

/// Linear-interpolated order statistic over an ascending-sorted sample
/// vector — the exact computation dl/inference.cpp historically used for
/// its serving percentiles (numpy.percentile 'linear'). p in [0, 100].
double percentile(const std::vector<double>& sorted, double p);

enum class MetricType { Counter, Gauge, Histogram };

const char* toString(MetricType t);

/// Monotone cumulative metric (bytes moved, errors seen, requests served).
class Counter {
 public:
  /// Increase by `delta` >= 0; negative deltas are invalid_argument.
  void add(double delta);
  void inc() { add(1.0); }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Instantaneous value metric (utilization %, queue depth, link up/down).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket latency/size distribution. Buckets are cumulative
/// upper-bound counts in the Prometheus style (le="bound", with +Inf
/// implicit); the exact observations are also retained so percentile
/// queries reproduce the order-statistic math bit-for-bit instead of the
/// bucket approximation (simulated runs observe thousands of samples, not
/// millions — exactness is worth the vector).
class Histogram {
 public:
  /// `bounds` are ascending upper bucket bounds; the +Inf bucket is
  /// implicit. Empty or non-ascending bounds are invalid_argument.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket i (i == bounds().size() is +Inf).
  std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }
  /// Cumulative count of observations <= bounds()[i] (Prometheus "le").
  std::uint64_t cumulativeCount(std::size_t i) const;

  /// Exact p-th percentile of everything observed (0 when empty).
  double percentile(double p) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 (+Inf)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  // Sorted lazily on percentile(): samples_[0, sorted_prefix_) is sorted,
  // and the samples observed since are sorted on their own and merged in
  // through merge_scratch_, which keeps its capacity between merges.
  mutable std::vector<double> samples_;
  mutable std::size_t sorted_prefix_ = 0;
  mutable std::vector<double> merge_scratch_;
};

/// The standard serving-latency bucket ladder in milliseconds
/// (1ms .. 10s, roughly log-spaced).
std::vector<double> defaultLatencyBucketsMs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The first call for a family fixes its type (and help
  /// text, if non-empty); re-registering a name as a different type is
  /// invalid_argument. Same (name, labels) always returns the same
  /// instrument.
  Counter& counter(const std::string& name, Labels labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, Labels labels = {},
               const std::string& help = "");
  Histogram& histogram(const std::string& name, Labels labels = {},
                       std::vector<double> bounds = defaultLatencyBucketsMs(),
                       const std::string& help = "");

  bool has(const std::string& name) const { return families_.count(name) > 0; }
  /// Instruments created so far, over all families. It only grows (no
  /// instrument is ever removed), so a reader bound to every instrument
  /// rebinds exactly when it changes.
  std::size_t instrumentCount() const { return instrument_count_; }
  /// Type of a family; throws std::out_of_range for unknown names.
  MetricType type(const std::string& name) const;

  /// One labeled instrument of a family.
  struct Instrument {
    Labels labels;
    const Counter* counter = nullptr;      // set when type == Counter
    const Gauge* gauge = nullptr;          // set when type == Gauge
    const Histogram* histogram = nullptr;  // set when type == Histogram
    /// Scalar view: counter/gauge value; histogram mean (sum/count).
    double value() const;
  };

  /// All instruments of `name` in label order (empty for unknown names).
  std::vector<Instrument> instruments(const std::string& name) const;

  /// Family names in lexicographic order.
  std::vector<std::string> familyNames() const;

  /// Prometheus text exposition (# HELP / # TYPE, families and label sets
  /// in sorted order, histograms as _bucket{le=...}/_sum/_count).
  std::string prometheusText() const;

  /// Help text of a family ("" for unknown names).
  std::string help(const std::string& name) const;

  /// Full-registry snapshot for warm-prefix forking: every family's type,
  /// help text and instruments with values copied bit-exactly (histograms
  /// keep their raw observation vectors, so percentile math reproduces).
  /// restoreState() get-or-creates each instrument then copy-assigns it,
  /// which also pre-creates instruments a collector would otherwise
  /// register lazily on its first post-fork scrape.
  struct State {
    struct CounterInst {
      Labels labels;
      Counter value;
    };
    struct GaugeInst {
      Labels labels;
      Gauge value;
    };
    struct HistogramInst {
      Labels labels;
      Histogram value;
    };
    struct FamilyState {
      std::string name;
      MetricType type = MetricType::Counter;
      std::string help;
      std::vector<CounterInst> counters;
      std::vector<GaugeInst> gauges;
      std::vector<HistogramInst> histograms;
    };
    std::vector<FamilyState> families;
  };

  State state() const;
  void restoreState(const State& st);

 private:
  struct Family {
    MetricType type = MetricType::Counter;
    std::string help;
    // Keyed by labelsToString(canonical labels) => deterministic order.
    std::map<std::string, std::pair<Labels, std::unique_ptr<Counter>>> counters;
    std::map<std::string, std::pair<Labels, std::unique_ptr<Gauge>>> gauges;
    std::map<std::string, std::pair<Labels, std::unique_ptr<Histogram>>> histograms;
  };

  Family& family(const std::string& name, MetricType type,
                 const std::string& help);

  std::map<std::string, Family> families_;
  std::size_t instrument_count_ = 0;
};

}  // namespace composim::telemetry
