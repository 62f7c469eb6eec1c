#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "falcon/json.hpp"

namespace composim::telemetry {

namespace {

/// Deterministic value formatting shared by the exposition writers:
/// printf's "%.17g" (exact integers print without a fraction), through the
/// same formatG17 falcon::Json::dump uses, so the Prometheus and JSONL
/// exports agree on every digit. Non-finite values keep printf's text.
std::string formatValue(double v) {
  char buf[falcon::kG17MaxChars];
  if (std::isfinite(v)) return std::string(buf, falcon::formatG17(buf, v));
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string escapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Labels canonicalLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i) {
    if (labels[i].first == labels[i - 1].first) {
      throw std::invalid_argument("metrics: duplicate label key '" +
                                  labels[i].first + "'");
    }
  }
  return labels;
}

std::string labelsToString(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first;
    out += "=\"";
    out += escapeLabelValue(labels[i].second);
    out += "\"";
  }
  out.push_back('}');
  return out;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

const char* toString(MetricType t) {
  switch (t) {
    case MetricType::Counter: return "counter";
    case MetricType::Gauge: return "gauge";
    case MetricType::Histogram: return "histogram";
  }
  return "?";
}

void Counter::add(double delta) {
  if (delta < 0.0) {
    throw std::invalid_argument("Counter: negative increment");
  }
  value_ += delta;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: no bucket bounds");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("Histogram: bounds must ascend");
    }
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  samples_.push_back(v);
}

std::uint64_t Histogram::cumulativeCount(std::size_t i) const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b) {
    total += buckets_[b];
  }
  return total;
}

double Histogram::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (sorted_prefix_ != samples_.size()) {
    // Sort the new tail, then merge it into the sorted prefix from the
    // back: the same vector a full sort gives, in linear time.
    const auto tail = samples_.begin() + static_cast<std::ptrdiff_t>(sorted_prefix_);
    std::sort(tail, samples_.end());
    if (sorted_prefix_ > 0) {
      merge_scratch_.assign(tail, samples_.end());
      std::size_t i = sorted_prefix_, j = merge_scratch_.size(), out = samples_.size();
      while (j > 0) {
        samples_[--out] = (i > 0 && samples_[i - 1] > merge_scratch_[j - 1])
                              ? samples_[--i]
                              : merge_scratch_[--j];
      }
    }
    sorted_prefix_ = samples_.size();
  }
  return telemetry::percentile(samples_, p);
}

std::vector<double> defaultLatencyBucketsMs() {
  return {1.0,   2.5,   5.0,   10.0,   25.0,   50.0,   100.0,
          250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
}

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name,
                                                 MetricType type,
                                                 const std::string& help) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family f;
    f.type = type;
    f.help = help;
    it = families_.emplace(name, std::move(f)).first;
  } else if (it->second.type != type) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered as " +
                                toString(it->second.type));
  } else if (it->second.help.empty() && !help.empty()) {
    it->second.help = help;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels,
                                  const std::string& help) {
  Family& f = family(name, MetricType::Counter, help);
  Labels canon = canonicalLabels(std::move(labels));
  const std::string key = labelsToString(canon);
  auto it = f.counters.find(key);
  if (it == f.counters.end()) {
    ++instrument_count_;
    it = f.counters
             .emplace(key, std::make_pair(std::move(canon),
                                          std::make_unique<Counter>()))
             .first;
  }
  return *it->second.second;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels,
                              const std::string& help) {
  Family& f = family(name, MetricType::Gauge, help);
  Labels canon = canonicalLabels(std::move(labels));
  const std::string key = labelsToString(canon);
  auto it = f.gauges.find(key);
  if (it == f.gauges.end()) {
    ++instrument_count_;
    it = f.gauges
             .emplace(key,
                      std::make_pair(std::move(canon), std::make_unique<Gauge>()))
             .first;
  }
  return *it->second.second;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  Family& f = family(name, MetricType::Histogram, help);
  Labels canon = canonicalLabels(std::move(labels));
  const std::string key = labelsToString(canon);
  auto it = f.histograms.find(key);
  if (it == f.histograms.end()) {
    ++instrument_count_;
    it = f.histograms
             .emplace(key, std::make_pair(std::move(canon),
                                          std::make_unique<Histogram>(
                                              std::move(bounds))))
             .first;
  }
  return *it->second.second;
}

MetricType MetricsRegistry::type(const std::string& name) const {
  return families_.at(name).type;
}

double MetricsRegistry::Instrument::value() const {
  if (counter != nullptr) return counter->value();
  if (gauge != nullptr) return gauge->value();
  if (histogram != nullptr && histogram->count() > 0) {
    return histogram->sum() / static_cast<double>(histogram->count());
  }
  return 0.0;
}

std::vector<MetricsRegistry::Instrument> MetricsRegistry::instruments(
    const std::string& name) const {
  std::vector<Instrument> out;
  const auto it = families_.find(name);
  if (it == families_.end()) return out;
  const Family& f = it->second;
  for (const auto& [key, entry] : f.counters) {
    out.push_back(Instrument{entry.first, entry.second.get(), nullptr, nullptr});
  }
  for (const auto& [key, entry] : f.gauges) {
    out.push_back(Instrument{entry.first, nullptr, entry.second.get(), nullptr});
  }
  for (const auto& [key, entry] : f.histograms) {
    out.push_back(Instrument{entry.first, nullptr, nullptr, entry.second.get()});
  }
  return out;
}

std::vector<std::string> MetricsRegistry::familyNames() const {
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& [name, f] : families_) names.push_back(name);
  return names;
}

std::string MetricsRegistry::help(const std::string& name) const {
  const auto it = families_.find(name);
  return it == families_.end() ? "" : it->second.help;
}

MetricsRegistry::State MetricsRegistry::state() const {
  State st;
  st.families.reserve(families_.size());
  for (const auto& [name, f] : families_) {
    State::FamilyState fs;
    fs.name = name;
    fs.type = f.type;
    fs.help = f.help;
    for (const auto& [key, entry] : f.counters) {
      fs.counters.push_back(State::CounterInst{entry.first, *entry.second});
    }
    for (const auto& [key, entry] : f.gauges) {
      fs.gauges.push_back(State::GaugeInst{entry.first, *entry.second});
    }
    for (const auto& [key, entry] : f.histograms) {
      fs.histograms.push_back(State::HistogramInst{entry.first, *entry.second});
    }
    st.families.push_back(std::move(fs));
  }
  return st;
}

void MetricsRegistry::restoreState(const State& st) {
  for (const State::FamilyState& fs : st.families) {
    for (const State::CounterInst& inst : fs.counters) {
      counter(fs.name, inst.labels, fs.help) = inst.value;
    }
    for (const State::GaugeInst& inst : fs.gauges) {
      gauge(fs.name, inst.labels, fs.help) = inst.value;
    }
    for (const State::HistogramInst& inst : fs.histograms) {
      histogram(fs.name, inst.labels, inst.value.bounds(), fs.help) =
          inst.value;
    }
    // A family captured before any instrument existed (type/help only)
    // still needs to exist so # TYPE lines match the donor's exposition.
    family(fs.name, fs.type, fs.help);
  }
}

std::string MetricsRegistry::prometheusText() const {
  std::string out;
  for (const auto& [name, f] : families_) {
    if (!f.help.empty()) {
      out += "# HELP " + name + " " + f.help + "\n";
    }
    out += "# TYPE " + name + " ";
    out += toString(f.type);
    out += "\n";
    for (const auto& [key, entry] : f.counters) {
      out += name + key + " " + formatValue(entry.second->value()) + "\n";
    }
    for (const auto& [key, entry] : f.gauges) {
      out += name + key + " " + formatValue(entry.second->value()) + "\n";
    }
    for (const auto& [key, entry] : f.histograms) {
      const Histogram& h = *entry.second;
      // Bucket lines carry the instrument labels plus the reserved `le`
      // label, which sorts after user labels by convention (appended).
      for (std::size_t b = 0; b <= h.bounds().size(); ++b) {
        Labels with_le = entry.first;
        with_le.emplace_back(
            "le", b < h.bounds().size() ? formatValue(h.bounds()[b]) : "+Inf");
        const std::uint64_t cum = b < h.bounds().size()
                                      ? h.cumulativeCount(b)
                                      : h.count();
        out += name + "_bucket" + labelsToString(with_le) + " " +
               formatValue(static_cast<double>(cum)) + "\n";
      }
      out += name + "_sum" + key + " " + formatValue(h.sum()) + "\n";
      out += name + "_count" + key + " " +
             formatValue(static_cast<double>(h.count())) + "\n";
    }
  }
  return out;
}

}  // namespace composim::telemetry
