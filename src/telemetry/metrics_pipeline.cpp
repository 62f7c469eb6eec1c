#include "telemetry/metrics_pipeline.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "falcon/json.hpp"

namespace composim::telemetry {

MetricsScraper::MetricsScraper(Simulator& sim, MetricsRegistry& registry,
                               SimTime interval)
    : sim_(&sim), registry_(registry), interval_(interval) {
  if (interval_ <= 0.0) {
    throw std::invalid_argument("MetricsScraper: interval must be positive");
  }
}

double RateProbe::operator()() {
  const double value = cumulative_();
  const SimTime now = sim_.now();
  if (st_.primed && now <= st_.last_time) {
    // Back-to-back polls at the same instant: no interval to differentiate
    // over, so hold the last computed rate (and leave the baseline alone —
    // the in-between counter delta still counts toward the next interval).
    return st_.last_rate;
  }
  if (st_.primed) {
    st_.last_rate = (value - st_.last_value) / (now - st_.last_time) * scale_;
  }
  st_.last_value = value;
  st_.last_time = now;
  st_.primed = true;
  return st_.last_rate;
}

void MetricsScraper::addCollector(std::function<void()> update) {
  collectors_.push_back(std::move(update));
}

RateProbe& MetricsScraper::rateProbe(std::function<double()> cumulative,
                                     double scale) {
  if (sim_ == nullptr) {
    throw std::logic_error("MetricsScraper::rateProbe: scraper finalized");
  }
  return probes_.emplace_back(*sim_, std::move(cumulative), scale);
}

double& MetricsScraper::counterBaseline() { return baselines_.emplace_back(); }

MetricsScraper::State MetricsScraper::state() const {
  if (running_) {
    throw std::logic_error("MetricsScraper::state: stop scraping first");
  }
  State st{series_, scrapes_, {}, {baselines_.begin(), baselines_.end()}};
  st.probes.reserve(probes_.size());
  for (const RateProbe& p : probes_) st.probes.push_back(p.state());
  return st;
}

void MetricsScraper::setState(const State& st) {
  if (running_) {
    throw std::logic_error("MetricsScraper::setState: stop scraping first");
  }
  if (st.probes.size() != probes_.size() ||
      st.baselines.size() != baselines_.size()) {
    throw std::logic_error(
        "MetricsScraper::setState: probe or baseline count mismatch");
  }
  series_ = st.series;
  bound_instruments_ = kUnbound;  // bindings point into the old series
  scrapes_ = st.scrapes;
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    probes_[i].setState(st.probes[i]);
  }
  std::copy(st.baselines.begin(), st.baselines.end(), baselines_.begin());
}

void MetricsScraper::start() {
  if (running_ || sim_ == nullptr) return;
  running_ = true;
  scrapeOnce();  // t0 snapshot primes alert-rate baselines
  tick();
}

void MetricsScraper::tick() {
  pending_tick_ = sim_->schedule(interval_, [this] {
    pending_tick_ = kInvalidEvent;
    if (!running_ || sim_ == nullptr) return;
    scrapeOnce();
    tick();
  });
}

void MetricsScraper::stopAndCancelTick() {
  running_ = false;
  if (sim_ != nullptr && pending_tick_ != kInvalidEvent) {
    sim_->cancel(pending_tick_);
  }
  pending_tick_ = kInvalidEvent;
}

void MetricsScraper::scrapeOnce() {
  if (sim_ == nullptr) return;
  const SimTime now = sim_->now();
  for (const auto& update : collectors_) update();
  if (bound_instruments_ != registry_.instrumentCount()) bind();
  for (const Binding& b : bindings_) {
    if (b.histogram == nullptr) {
      b.series[0]->push(now, b.counter != nullptr ? b.counter->value()
                                                  : b.gauge->value());
      continue;
    }
    const Histogram& h = *b.histogram;
    b.series[0]->push(now, static_cast<double>(h.count()));
    b.series[1]->push(now, h.sum());
    b.series[2]->push(now, h.percentile(50.0));
    b.series[3]->push(now, h.percentile(95.0));
    b.series[4]->push(now, h.percentile(99.0));
  }
  ++scrapes_;
  if (alerts_ != nullptr) alerts_->evaluate(now);
}

const TimeSeries& MetricsScraper::series(const std::string& name) const {
  auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range("MetricsScraper: no series '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> MetricsScraper::seriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) names.push_back(name);
  return names;
}

void MetricsScraper::bind() {
  bindings_.clear();
  for (const std::string& name : registry_.familyNames()) {
    for (const auto& inst : registry_.instruments(name)) {
      const std::string key = labelsToString(inst.labels);
      Binding b{inst.counter, inst.gauge, inst.histogram, {}};
      if (inst.histogram == nullptr) {
        b.series[0] = &seriesFor(name + key);
      } else {
        std::size_t i = 0;
        for (const char* sub : {"_count", "_sum", "_p50", "_p95", "_p99"}) {
          b.series[i++] = &seriesFor(name + sub + key);
        }
      }
      bindings_.push_back(b);
    }
  }
  bound_instruments_ = registry_.instrumentCount();
}

void MetricsScraper::reserveSeries(std::size_t samples) {
  for (auto& [name, s] : series_) s.reserve(s.size() + samples);
}

TimeSeries& MetricsScraper::seriesFor(const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, TimeSeries(name)).first;
  }
  return it->second;
}

std::string MetricsScraper::jsonlDump() const {
  std::string out;
  for (const auto& [name, s] : series_) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      falcon::JsonWriter line(out);
      line.beginObject();
      line.quotedKey(R"("metric")");
      line.value(name);
      line.quotedKey(R"("t")");
      line.value(s.timeAt(i));
      line.quotedKey(R"("value")");
      line.value(s.valueAt(i));
      line.endObject();
      out.push_back('\n');
    }
  }
  return out;
}

Status MetricsScraper::writeJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::internal("cannot open '" + path + "' for writing");
  out << jsonlDump();
  if (!out) return Status::internal("short write to '" + path + "'");
  return Status::success();
}

void MetricsScraper::finalize() {
  running_ = false;
  sim_ = nullptr;
  // Collectors and probes capture subsystem refs; drop them too.
  collectors_.clear();
  probes_.clear();
  bindings_ = {};
  bound_instruments_ = kUnbound;
}

Status MetricsPipeline::writePrometheus(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::internal("cannot open '" + path + "' for writing");
  out << registry_.prometheusText();
  if (!out) return Status::internal("short write to '" + path + "'");
  return Status::success();
}

}  // namespace composim::telemetry
