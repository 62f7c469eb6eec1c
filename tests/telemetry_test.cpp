// Tests for time series, rate probes and the reporting helpers.
#include <gtest/gtest.h>

#include <fstream>

#include "telemetry/collectors.hpp"
#include "telemetry/report.hpp"
#include "telemetry/time_series.hpp"

namespace composim::telemetry {
namespace {

TEST(TimeSeries, PushAndStats) {
  TimeSeries s("x");
  s.push(0.0, 1.0);
  s.push(1.0, 3.0);
  s.push(2.0, 5.0);
  const auto st = s.stats();
  EXPECT_EQ(st.count, 3u);
  EXPECT_DOUBLE_EQ(st.min, 1.0);
  EXPECT_DOUBLE_EQ(st.max, 5.0);
  EXPECT_DOUBLE_EQ(st.mean, 3.0);
  EXPECT_NEAR(st.stddev, 1.63299, 1e-4);
  EXPECT_DOUBLE_EQ(s.last(), 5.0);
}

TEST(TimeSeries, RejectsNonMonotonicTime) {
  TimeSeries s("x");
  s.push(1.0, 0.0);
  EXPECT_THROW(s.push(0.5, 0.0), std::invalid_argument);
  s.push(1.0, 0.0);  // equal times allowed
}

TEST(TimeSeries, MeanInWindow) {
  TimeSeries s("x");
  for (int i = 0; i < 10; ++i) s.push(i, i);
  EXPECT_DOUBLE_EQ(s.meanInWindow(2.0, 4.0), 3.0);
  EXPECT_DOUBLE_EQ(s.meanInWindow(100.0, 200.0), 0.0);
}

TEST(TimeSeries, EdgeCasesAreWellDefined) {
  // resample(0) and resampling an empty series are empty, not a crash.
  TimeSeries s("x");
  s.push(0.0, 1.0);
  s.push(1.0, 2.0);
  EXPECT_TRUE(s.resample(0).empty());
  EXPECT_TRUE(TimeSeries("e").resample(0).empty());
  // meanInWindow over an empty series or an inverted window is 0.
  EXPECT_DOUBLE_EQ(TimeSeries("e").meanInWindow(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.meanInWindow(1.0, 0.0), 0.0);
  // A single sample has zero spread.
  TimeSeries one("one");
  one.push(0.0, 7.0);
  const auto st = one.stats();
  EXPECT_EQ(st.count, 1u);
  EXPECT_DOUBLE_EQ(st.stddev, 0.0);
  EXPECT_DOUBLE_EQ(st.min, 7.0);
  EXPECT_DOUBLE_EQ(st.max, 7.0);
}

TEST(TimeSeries, ResampleAverages) {
  TimeSeries s("x");
  for (int i = 0; i < 100; ++i) s.push(i, (i < 50) ? 0.0 : 10.0);
  const auto r = s.resample(2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 10.0);
  EXPECT_EQ(s.resample(200).size(), 100u);  // no upsampling
  EXPECT_TRUE(TimeSeries("e").resample(4).empty());
}

TEST(RateProbe, DifferentiatesCumulativeCounter) {
  Simulator sim;
  double counter = 0.0;
  RateProbe probe(sim, [&] { return counter; }, 1.0);
  EXPECT_DOUBLE_EQ(probe(), 0.0);  // priming sample
  counter = 50.0;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(probe(), 10.0);  // 50 units over 5 s
}

TEST(RateProbe, ZeroIntervalSampleHoldsPreviousRate) {
  // Back-to-back samples at the same simulated instant (the pipeline's
  // final scrape can coincide with a scheduled tick) must not divide by
  // the zero interval; the probe reports the last computed rate.
  Simulator sim;
  double counter = 0.0;
  RateProbe probe(sim, [&] { return counter; }, 1.0);
  EXPECT_DOUBLE_EQ(probe(), 0.0);  // priming at t=0
  EXPECT_DOUBLE_EQ(probe(), 0.0);  // same instant, right after priming
  counter = 20.0;
  sim.schedule(2.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(probe(), 10.0);  // 20 units over 2 s
  counter = 100.0;
  EXPECT_DOUBLE_EQ(probe(), 10.0);  // dt = 0: held, baseline untouched
  sim.schedule(2.0, [] {});
  sim.run();
  // The zero-interval sample did not consume the 80-unit delta.
  EXPECT_DOUBLE_EQ(probe(), 40.0);
}

TEST(RateProbe, ScalesToPercent) {
  // A counter advancing 0.5 busy-seconds per second, scaled by 100, reads
  // 50% — the GPU and CPU collectors' utilization arithmetic.
  Simulator sim;
  RateProbe probe(sim, [&sim] { return 0.5 * sim.now(); }, 100.0);
  EXPECT_DOUBLE_EQ(probe(), 0.0);  // priming sample
  sim.schedule(3.5, [] {});
  sim.run();
  EXPECT_NEAR(probe(), 50.0, 1e-9);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(BarChart, ScalesToLargestValueAndMarksNegatives) {
  const std::string out = barChart({{"big", 10.0}, {"small", 5.0}, {"neg", -5.0}},
                                   "%", 10);
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
  EXPECT_NE(out.find("<<<<<"), std::string::npos);
  EXPECT_EQ(barChart({}, ""), "(no data)\n");
}

TEST(StripChart, RendersHighAndLowBands) {
  TimeSeries s("util");
  for (int i = 0; i < 80; ++i) s.push(i, (i % 10 < 5) ? 95.0 : 10.0);
  const std::string out = stripChart(s, 40, 4);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("> time"), std::string::npos);
}

TEST(Csv, JoinsSeriesColumns) {
  TimeSeries a("a"), b("b");
  a.push(0.0, 1.0);
  a.push(1.0, 2.0);
  b.push(0.0, 3.0);
  b.push(1.0, 4.0);
  const std::string csv = toCsv({&a, &b});
  EXPECT_NE(csv.find("time,a,b"), std::string::npos);
  EXPECT_NE(csv.find("1.000000,2.000000,4.000000"), std::string::npos);
}

TEST(WriteFile, RoundTripsAndThrowsOnBadPath) {
  const std::string path = ::testing::TempDir() + "/composim_report.txt";
  writeFile(path, "hello");
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
  EXPECT_THROW(writeFile("/nonexistent-dir/x.txt", "y"), std::runtime_error);
}

}  // namespace
}  // namespace composim::telemetry
