// Tests for the labeled metrics registry, the shared percentile math, the
// scrape pipeline and its exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep_runner.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/metrics_pipeline.hpp"

namespace composim::telemetry {
namespace {

/// The order-statistic percentile dl/inference.cpp historically computed
/// inline — the registry's histograms must reproduce it bit-for-bit.
double adhocPercentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::vector<double> seededSamples(std::size_t n) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> dist(0.1, 400.0);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(dist(rng));
  return out;
}

TEST(Labels, CanonicalFormSortsByKey) {
  const Labels canon =
      canonicalLabels({{"zone", "a"}, {"device", "gpu0"}, {"link", "x"}});
  ASSERT_EQ(canon.size(), 3u);
  EXPECT_EQ(canon[0].first, "device");
  EXPECT_EQ(canon[1].first, "link");
  EXPECT_EQ(canon[2].first, "zone");
  EXPECT_THROW(canonicalLabels({{"k", "a"}, {"k", "b"}}),
               std::invalid_argument);
}

TEST(Labels, ToStringEscapesPerExpositionRules) {
  EXPECT_EQ(labelsToString({}), "");
  EXPECT_EQ(labelsToString({{"a", "plain"}}), "{a=\"plain\"}");
  // Backslash, double quote and newline must be escaped.
  EXPECT_EQ(labelsToString({{"m", "say \"hi\"\\\n"}}),
            "{m=\"say \\\"hi\\\"\\\\\\n\"}");
}

TEST(Percentile, MatchesAdhocOrderStatistic) {
  const auto samples = seededSamples(257);
  auto sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(percentile(sorted, p), adhocPercentile(samples, p)) << p;
  }
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Counter, MonotoneAndRejectsNegative) {
  Counter c;
  c.add(2.5);
  c.inc();
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.add(-1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Histogram, ValidatesBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketsAreCumulativeUpperBounds) {
  Histogram h({1.0, 2.0, 5.0});
  for (double v : {0.5, 1.0, 1.5, 4.0, 9.0}) h.observe(v);
  // le semantics: an observation equal to a bound lands in that bucket.
  EXPECT_EQ(h.bucketCount(0), 2u);  // 0.5, 1.0
  EXPECT_EQ(h.bucketCount(1), 1u);  // 1.5
  EXPECT_EQ(h.bucketCount(2), 1u);  // 4.0
  EXPECT_EQ(h.bucketCount(3), 1u);  // 9.0 -> +Inf
  EXPECT_EQ(h.cumulativeCount(0), 2u);
  EXPECT_EQ(h.cumulativeCount(2), 4u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
}

TEST(Histogram, PercentilesMatchAdhocComputationExactly) {
  // The acceptance bar for replacing dl/inference.cpp's inline math: on
  // identical inputs the histogram's percentiles are the same doubles.
  Histogram h(defaultLatencyBucketsMs());
  const auto samples = seededSamples(1000);
  for (double v : samples) h.observe(v);
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(h.percentile(p), adhocPercentile(samples, p)) << p;
  }
  // Percentile queries interleaved with observation (lazy re-sort).
  Histogram inc(defaultLatencyBucketsMs());
  std::vector<double> so_far;
  for (double v : samples) {
    inc.observe(v);
    so_far.push_back(v);
    if (so_far.size() % 250 == 0) {
      EXPECT_EQ(inc.percentile(95.0), adhocPercentile(so_far, 95.0));
    }
  }
  EXPECT_DOUBLE_EQ(Histogram({1.0}).percentile(50.0), 0.0);
}

TEST(MetricsRegistry, GetOrCreateReturnsTheSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("bytes_total", {{"link", "x"}, {"dir", "up"}});
  Counter& b = reg.counter("bytes_total", {{"dir", "up"}, {"link", "x"}});
  EXPECT_EQ(&a, &b);  // label order does not matter
  Counter& c = reg.counter("bytes_total", {{"dir", "down"}, {"link", "x"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.instruments("bytes_total").size(), 2u);
  EXPECT_TRUE(reg.has("bytes_total"));
  EXPECT_FALSE(reg.has("nope"));
  EXPECT_EQ(reg.type("bytes_total"), MetricType::Counter);
  EXPECT_THROW(reg.type("nope"), std::out_of_range);
}

TEST(MetricsRegistry, TypeConflictThrows) {
  MetricsRegistry reg;
  reg.gauge("util_pct");
  EXPECT_THROW(reg.counter("util_pct"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("util_pct"), std::invalid_argument);
}

TEST(MetricsRegistry, InstrumentScalarView) {
  MetricsRegistry reg;
  reg.counter("c").add(4.0);
  reg.gauge("g").set(-2.5);
  Histogram& h = reg.histogram("h");
  EXPECT_DOUBLE_EQ(reg.instruments("c")[0].value(), 4.0);
  EXPECT_DOUBLE_EQ(reg.instruments("g")[0].value(), -2.5);
  EXPECT_DOUBLE_EQ(reg.instruments("h")[0].value(), 0.0);  // empty histogram
  h.observe(2.0);
  h.observe(4.0);
  EXPECT_DOUBLE_EQ(reg.instruments("h")[0].value(), 3.0);  // mean
}

TEST(MetricsRegistry, PrometheusTextExactExposition) {
  MetricsRegistry reg;
  reg.counter("requests_total", {}, "Requests served").add(3.0);
  reg.gauge("temp_c", {{"zone", "a"}}).set(1.5);
  Histogram& h = reg.histogram("lat_ms", {}, {1.0, 2.0}, "Latency");
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  EXPECT_EQ(reg.prometheusText(),
            "# HELP lat_ms Latency\n"
            "# TYPE lat_ms histogram\n"
            "lat_ms_bucket{le=\"1\"} 1\n"
            "lat_ms_bucket{le=\"2\"} 2\n"
            "lat_ms_bucket{le=\"+Inf\"} 3\n"
            "lat_ms_sum 5\n"
            "lat_ms_count 3\n"
            "# HELP requests_total Requests served\n"
            "# TYPE requests_total counter\n"
            "requests_total 3\n"
            "# TYPE temp_c gauge\n"
            "temp_c{zone=\"a\"} 1.5\n");
}

TEST(MetricsRegistry, PrometheusTextIsInsertionOrderIndependent) {
  auto populate = [](MetricsRegistry& reg, bool reversed) {
    if (reversed) {
      reg.gauge("z_last", {{"b", "2"}}).set(2.0);
      reg.gauge("z_last", {{"a", "1"}}).set(1.0);
      reg.counter("a_first").add(7.0);
    } else {
      reg.counter("a_first").add(7.0);
      reg.gauge("z_last", {{"a", "1"}}).set(1.0);
      reg.gauge("z_last", {{"b", "2"}}).set(2.0);
    }
  };
  MetricsRegistry fwd, rev;
  populate(fwd, false);
  populate(rev, true);
  EXPECT_EQ(fwd.prometheusText(), rev.prometheusText());
  EXPECT_EQ(fwd.familyNames(), (std::vector<std::string>{"a_first", "z_last"}));
}

TEST(MetricsScraper, ScrapesOnTheSimulatedInterval) {
  Simulator sim;
  MetricsRegistry reg;
  MetricsScraper scraper(sim, reg, 1.0);
  Gauge& g = reg.gauge("v");
  int pulls = 0;
  scraper.addCollector([&] { g.set(static_cast<double>(++pulls)); });
  scraper.start();
  sim.schedule(3.5, [&scraper] { scraper.stop(); });
  sim.run();
  // Scrapes at t=0, 1, 2, 3; collector ran before each snapshot.
  const TimeSeries& s = scraper.series("v");
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(scraper.scrapeCount(), 4u);
  EXPECT_DOUBLE_EQ(s.timeAt(3), 3.0);
  EXPECT_DOUBLE_EQ(s.valueAt(0), 1.0);
  EXPECT_DOUBLE_EQ(s.valueAt(3), 4.0);
  EXPECT_THROW(scraper.series("nope"), std::out_of_range);
}

TEST(MetricsScraper, HistogramsScrapeSubSeries) {
  Simulator sim;
  MetricsRegistry reg;
  MetricsScraper scraper(sim, reg, 1.0);
  Histogram& h = reg.histogram("lat_ms");
  h.observe(10.0);
  h.observe(30.0);
  scraper.scrapeOnce();
  for (const char* name :
       {"lat_ms_count", "lat_ms_sum", "lat_ms_p50", "lat_ms_p95",
        "lat_ms_p99"}) {
    EXPECT_TRUE(scraper.hasSeries(name)) << name;
  }
  EXPECT_DOUBLE_EQ(scraper.series("lat_ms_count").last(), 2.0);
  EXPECT_DOUBLE_EQ(scraper.series("lat_ms_sum").last(), 40.0);
  EXPECT_DOUBLE_EQ(scraper.series("lat_ms_p50").last(), 20.0);
}

TEST(MetricsScraper, JsonlDumpIsExactAndOrdered) {
  Simulator sim;
  MetricsRegistry reg;
  MetricsScraper scraper(sim, reg, 1.0);
  Gauge& g = reg.gauge("b");
  reg.gauge("a").set(0.25);
  g.set(1.0);
  scraper.scrapeOnce();
  sim.schedule(1.0, [&] {
    g.set(2.0);
    scraper.scrapeOnce();
  });
  sim.run();
  EXPECT_EQ(scraper.jsonlDump(),
            "{\"metric\":\"a\",\"t\":0,\"value\":0.25}\n"
            "{\"metric\":\"a\",\"t\":1,\"value\":0.25}\n"
            "{\"metric\":\"b\",\"t\":0,\"value\":1}\n"
            "{\"metric\":\"b\",\"t\":1,\"value\":2}\n");
}

/// A scraper over two plain sources: a cumulative counter read through a
/// rate probe and an error total a collector differences by hand.
struct ProbeRig {
  Simulator sim;
  MetricsRegistry reg;
  MetricsScraper scraper{sim, reg, 1.0};
  double bytes = 0.0;
  double errors = 0.0;

  ProbeRig() {
    RateProbe* rate = &scraper.rateProbe([this] { return bytes; }, 2.0);
    double* last_errors = &scraper.counterBaseline();
    Gauge& gauge = reg.gauge("rate");
    Counter& total = reg.counter("errors_total");
    scraper.addCollector([this, rate, last_errors, &gauge, &total] {
      gauge.set((*rate)());
      total.add(errors - *last_errors);
      *last_errors = errors;
    });
  }

  /// Move the sources to (bytes, errors) one second on, then scrape.
  void stepAndScrape(double b, double e) {
    sim.schedule(1.0, [this, b, e] {
      bytes = b;
      errors = e;
      scraper.scrapeOnce();
    });
    sim.run();
  }
};

TEST(MetricsScraper, StateCarriesProbesAndBaselinesIntoAFreshScraper) {
  ProbeRig donor;
  donor.scraper.scrapeOnce();  // primes the probe at t = 0
  donor.stepAndScrape(3.0, 5.0);
  ASSERT_DOUBLE_EQ(donor.scraper.series("rate").last(), 6.0);

  // The fork: same collectors, subsystem and clock state copied over,
  // then the registry and scraper restored.
  ProbeRig fork;
  fork.bytes = donor.bytes;
  fork.errors = donor.errors;
  fork.sim.setState(donor.sim.state());
  fork.reg.restoreState(donor.reg.state());
  fork.scraper.setState(donor.scraper.state());

  donor.stepAndScrape(7.0, 9.0);
  fork.stepAndScrape(7.0, 9.0);
  for (const char* name : {"rate", "errors_total"}) {
    const TimeSeries& d = donor.scraper.series(name);
    const TimeSeries& f = fork.scraper.series(name);
    ASSERT_EQ(d.size(), 3u) << name;
    ASSERT_EQ(f.size(), 3u) << name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.last()),
              std::bit_cast<std::uint64_t>(f.last()))
        << name;
  }
  // A re-primed probe would read 0 and a lost baseline would count all 9
  // errors again.
  EXPECT_DOUBLE_EQ(fork.scraper.series("rate").last(), 8.0);
  EXPECT_DOUBLE_EQ(fork.scraper.series("errors_total").last(), 9.0);
  EXPECT_EQ(donor.scraper.jsonlDump(), fork.scraper.jsonlDump());
}

TEST(MetricsScraper, SetStateRejectsADifferentProbeSet) {
  ProbeRig donor;
  donor.scraper.scrapeOnce();
  Simulator sim;
  MetricsRegistry reg;
  MetricsScraper bare(sim, reg, 1.0);
  EXPECT_THROW(bare.setState(donor.scraper.state()), std::logic_error);
}

TEST(MetricsPipeline, ExperimentExportsAreRunToRunDeterministic) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 6;
  opt.metrics.alerts = {"gpu_util_pct < 10 for 1s"};
  const auto a =
      core::Experiment::run(core::SystemConfig::FalconGpus, dl::workload("ResNet-50"), opt);
  const auto b =
      core::Experiment::run(core::SystemConfig::FalconGpus, dl::workload("ResNet-50"), opt);
  ASSERT_NE(a.metrics, nullptr);
  ASSERT_NE(b.metrics, nullptr);
  EXPECT_GT(a.metrics->prometheusText().size(), 0u);
  EXPECT_EQ(a.metrics->prometheusText(), b.metrics->prometheusText());
  EXPECT_EQ(a.metrics->jsonlDump(), b.metrics->jsonlDump());
}

TEST(MetricsPipeline, SweepExportsIdenticalAtAnyJobCount) {
  // The --jobs 1 vs --jobs 4 contract: replaying the same sweep serially
  // and in parallel yields byte-identical Prometheus and JSONL exports.
  const std::vector<core::SystemConfig> configs = {
      core::SystemConfig::LocalGpus, core::SystemConfig::FalconGpus,
      core::SystemConfig::HybridGpus, core::SystemConfig::FalconGpus};
  auto exports = [&configs](int jobs) {
    std::vector<std::string> out;
    const auto results =
        core::sweepOrdered(jobs, configs.size(), [&configs](std::size_t i) {
          core::ExperimentOptions opt;
          opt.trainer.epochs = 1;
          opt.trainer.max_iterations_per_epoch = 5;
          opt.metrics.alerts = {"gpu_util_pct < 10 for 1s"};
          return core::Experiment::run(configs[i], dl::workload("ResNet-50"), opt);
        });
    for (const auto& r : results) {
      out.push_back(r.metrics->prometheusText());
      out.push_back(r.metrics->jsonlDump());
    }
    return out;
  };
  const auto serial = exports(1);
  const auto parallel = exports(4);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_GT(serial[0].size(), 0u);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace composim::telemetry
