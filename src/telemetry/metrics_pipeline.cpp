#include "telemetry/metrics_pipeline.hpp"

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

void MetricsScraper::addCollector(std::function<void()> update) {
  collectors_.push_back(Collector{std::move(update), nullptr, nullptr});
}

void MetricsScraper::addCollector(std::function<void()> update,
                                  std::function<CollectorState()> save,
                                  std::function<void(const CollectorState&)> load) {
  collectors_.push_back(
      Collector{std::move(update), std::move(save), std::move(load)});
}

std::vector<MetricsScraper::CollectorState> MetricsScraper::collectorStates()
    const {
  std::vector<CollectorState> out;
  out.reserve(collectors_.size());
  for (const Collector& c : collectors_) {
    out.push_back(c.save ? c.save() : CollectorState{});
  }
  return out;
}

void MetricsScraper::restoreCollectorStates(
    const std::vector<CollectorState>& states) {
  if (states.size() != collectors_.size()) {
    throw std::logic_error(
        "MetricsScraper::restoreCollectorStates: collector count mismatch");
  }
  for (std::size_t i = 0; i < collectors_.size(); ++i) {
    if (collectors_[i].load) collectors_[i].load(states[i]);
  }
}

MetricsScraper::State MetricsScraper::state() const {
  if (running_) {
    throw std::logic_error("MetricsScraper::state: stop scraping first");
  }
  return State{series_, scrapes_};
}

void MetricsScraper::setState(const State& st) {
  if (running_) {
    throw std::logic_error("MetricsScraper::setState: stop scraping first");
  }
  series_ = st.series;
  scrapes_ = st.scrapes;
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
  for (const auto& c : collectors_) c.update();
  for (const std::string& name : registry_.familyNames()) {
    const bool histo = registry_.type(name) == MetricType::Histogram;
    for (const auto& inst : registry_.instruments(name)) {
      const std::string key = labelsToString(inst.labels);
      if (!histo) {
        seriesFor(name + key).push(now, inst.value());
        continue;
      }
      const Histogram& h = *inst.histogram;
      seriesFor(name + "_count" + key)
          .push(now, static_cast<double>(h.count()));
      seriesFor(name + "_sum" + key).push(now, h.sum());
      seriesFor(name + "_p50" + key).push(now, h.percentile(50.0));
      seriesFor(name + "_p95" + key).push(now, h.percentile(95.0));
      seriesFor(name + "_p99" + key).push(now, h.percentile(99.0));
    }
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
  collectors_.clear();  // collectors capture subsystem refs; drop them too
}

Status MetricsPipeline::writePrometheus(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::internal("cannot open '" + path + "' for writing");
  out << registry_.prometheusText();
  if (!out) return Status::internal("short write to '" + path + "'");
  return Status::success();
}

}  // namespace composim::telemetry
