// composim: sampled metric series.
//
// Equivalent of one wandb system-metric stream: (time, value) points with
// summary statistics. Values are whatever the probe reports (percent,
// bytes, GB/s, ...) — the series does not interpret units.
#pragma once

#include <string>
#include <vector>

#include "sim/units.hpp"

namespace composim::telemetry {

struct SeriesStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;
};

class TimeSeries {
 public:
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void push(SimTime t, double value);
  /// Room for `n` samples in all, so pushes up to then do not allocate.
  void reserve(std::size_t n) {
    times_.reserve(n);
    values_.reserve(n);
  }

  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }
  SimTime timeAt(std::size_t i) const { return times_.at(i); }
  double valueAt(std::size_t i) const { return values_.at(i); }
  const std::vector<SimTime>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }
  double last() const { return values_.empty() ? 0.0 : values_.back(); }

  SeriesStats stats() const;

  /// Mean over samples with t in [from, to].
  double meanInWindow(SimTime from, SimTime to) const;

  /// Downsample to at most `buckets` points by window-averaging (used for
  /// the ASCII figure renderers).
  std::vector<double> resample(std::size_t buckets) const;

 private:
  std::string name_;
  std::vector<SimTime> times_;
  std::vector<double> values_;
};

}  // namespace composim::telemetry
