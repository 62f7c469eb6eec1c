// Tests for the span/counter profiler and its Chrome trace_event export:
// record mechanics, counter dedup, trace structure for a real
// 2-GPU DDP training run, and determinism across identical seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/composable_system.hpp"
#include "core/experiment.hpp"
#include "dl/trainer.hpp"
#include "dl/workload_registry.hpp"
#include "profile_emit.hpp"
#include "telemetry/profiler.hpp"

namespace composim::telemetry {
namespace {

using core::ComposableSystem;
using core::SystemConfig;

// --- unit mechanics on a bare simulator ---

TEST(Profiler, TrackSpansRecordBeginEndAtSimTime) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  sim.schedule(1.0, [&] {
    beginSpan(prof, "test", "test", "outer");
    beginSpan(prof, "test", "test", "inner");
    endSpan(prof, "test");  // E records close LIFO per track: "inner"
    sim.schedule(0.5, [&prof] { endSpan(prof, "test"); });
  });
  sim.run();
  // Records: B outer, B inner, E (s.end at t=1), E (scheduled at t=1.5)
  ASSERT_EQ(prof.recordCount(), 4u);
  const falcon::Json doc = traceDocument(prof);
  const auto& events = doc.at("traceEvents").asArray();
  // 1 process_name + 1 thread_name metadata, then the 4 records.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[2].at("ph").asString(), "B");
  EXPECT_EQ(events[2].at("name").asString(), "outer");
  EXPECT_DOUBLE_EQ(events[2].at("ts").asDouble(), 1.0e6);
  EXPECT_EQ(events[3].at("ph").asString(), "B");
  EXPECT_EQ(events[4].at("ph").asString(), "E");
  EXPECT_DOUBLE_EQ(events[4].at("ts").asDouble(), 1.0e6);
  EXPECT_EQ(events[5].at("ph").asString(), "E");
  EXPECT_DOUBLE_EQ(events[5].at("ts").asDouble(), 1.5e6);
}

TEST(Profiler, AsyncSpansPairByCorrelationId) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  const AsyncSpanId a = beginAsyncSpan(prof, "net", "flowA");
  const AsyncSpanId b = beginAsyncSpan(prof, "net", "flowB");
  EXPECT_NE(a, kInvalidAsyncSpan);
  EXPECT_NE(a, b);
  sim.schedule(2.0, [&] {
    prof.endAsyncSpan(b);
    prof.endAsyncSpan(a);
  });
  sim.run();
  const falcon::Json doc = traceDocument(prof);
  const auto& events = doc.at("traceEvents").asArray();
  // metadata (process + 1 track) + b,b,e,e
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[2].at("ph").asString(), "b");
  EXPECT_EQ(events[4].at("ph").asString(), "e");
  // End records repeat the name and carry the id of their begin.
  EXPECT_EQ(events[4].at("name").asString(), "flowB");
  EXPECT_EQ(events[4].at("id").asInt(), events[3].at("id").asInt());
  EXPECT_EQ(events[5].at("name").asString(), "flowA");
  EXPECT_EQ(events[5].at("id").asInt(), events[2].at("id").asInt());
  // Double-end is ignored.
  prof.endAsyncSpan(a);
  EXPECT_EQ(prof.recordCount(), 4u);
}

TEST(Profiler, CountersDedupAndIntegrate) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  setCounter(prof, "link", "util", 50.0);
  sim.schedule(1.0, [&] {
    setCounter(prof, "link", "util", 50.0);  // unchanged: no record
    setCounter(prof, "link", "util", 100.0);
  });
  sim.schedule(2.0, [&] { setCounter(prof, "link", "util", 0.0); });
  sim.run();
  // The duplicate was dropped; the step series is what the records hold
  // (the analyzer integrates it, see Analysis.LinkContention*).
  ASSERT_EQ(prof.recordCount(), 3u);
  const std::vector<std::pair<SimTime, double>> want = {
      {0.0, 50.0}, {1.0, 100.0}, {2.0, 0.0}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Profiler::Record& r = prof.records()[i];
    EXPECT_EQ(r.phase, 'C');
    EXPECT_EQ(prof.str(r.name), "link");
    ASSERT_EQ(r.args_count, 1u);
    EXPECT_EQ(prof.str(prof.args(r).front().key), "util");
    EXPECT_DOUBLE_EQ(r.time, want[i].first);
    EXPECT_DOUBLE_EQ(prof.args(r).front().num, want[i].second);
  }
}

TEST(Profiler, FinalizeFreezesAndDetaches) {
  Simulator sim;
  auto prof = std::make_shared<Profiler>(sim);
  sim.setProfiler(prof.get());
  sim.schedule(1.0, [&] { setCounter(*prof, "c", "v", 10.0); });
  sim.run();
  prof->finalize();
  const std::size_t n = prof->recordCount();
  // Recording stops after finalize.
  instant(*prof, "x", "late");
  setCounter(*prof, "c", "v", 99.0);
  EXPECT_EQ(prof->recordCount(), n);
  EXPECT_DOUBLE_EQ(prof->args(prof->records().back()).front().num, 10.0);
  EXPECT_DOUBLE_EQ(prof->endTime(), 1.0);
}

TEST(Profiler, ProfileArgsHoldSixAndRejectASeventh) {
  ProfileArgs args{{"a", 1}, {"b", 2}, {"c", 3}, {"d", "x"}, {"e", 5}};
  args.push_back({"f", 6});
  EXPECT_EQ(args.size(), ProfileArgs::kCapacity);
  EXPECT_THROW(args.push_back({"g", 7}), std::length_error);
  EXPECT_EQ(args.size(), ProfileArgs::kCapacity);
}

TEST(ProfilerTrace, CollidingTimestampsExportInDocumentedOrder) {
  // Two tracks interleave records at the same simulated instant; the
  // export must group them by track (time, track id, sequence) instead
  // of leaking the event-execution interleaving.
  auto record = [](Profiler& prof) {
    beginSpan(prof, "beta", "c", "b1");
    beginSpan(prof, "alpha", "c", "a1");
    endSpan(prof, "beta");
    endSpan(prof, "alpha");
    beginSpan(prof, "beta", "c", "b2");
    endSpan(prof, "beta");
  };
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  sim.schedule(1.0, [&] { record(prof); });
  sim.run();
  ASSERT_EQ(prof.recordCount(), 6u);

  const auto order = prof.exportOrder();
  const auto& recs = prof.records();
  std::vector<std::pair<char, std::uint32_t>> got;
  for (const std::size_t idx : order) {
    got.emplace_back(recs[idx].phase, recs[idx].tid);
  }
  // beta = tid 0 (first use), alpha = tid 1: all beta records first, in
  // per-track recording order (depth-correct), then alpha's pair.
  const std::vector<std::pair<char, std::uint32_t>> want = {
      {'B', 0}, {'E', 0}, {'B', 0}, {'E', 0}, {'B', 1}, {'E', 1}};
  EXPECT_EQ(got, want);

  // Identical runs export byte-identically even with the collisions.
  Simulator sim2;
  Profiler prof2(sim2);
  sim2.setProfiler(&prof2);
  sim2.schedule(1.0, [&] { record(prof2); });
  sim2.run();
  EXPECT_EQ(prof.chromeTrace().dump(-1), prof2.chromeTrace().dump(-1));
}

// --- structural checks on a real 2-GPU DDP run ---

struct TraceRun {
  std::string dump;       // compact chromeTrace JSON
  std::size_t records = 0;
  std::shared_ptr<Profiler> profiler;
};

TraceRun runTinyDdp(bool trace) {
  ComposableSystem sys{SystemConfig::LocalGpus};
  auto gpus = sys.trainingGpus();
  gpus.resize(2);  // 2-rank DDP
  std::shared_ptr<Profiler> prof;
  if (trace) {
    prof = std::make_shared<Profiler>(sys.sim());
    sys.sim().setProfiler(prof.get());
  }
  dl::TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 3;
  opt.strategy = dl::Strategy::DistributedDataParallel;
  dl::Trainer trainer(sys.sim(), sys.network(), sys.topology(), gpus,
                      sys.cpu(), sys.hostMemory(), sys.trainingStorage(),
                      dl::workload("MobileNetV2"), dl::datasetFor(dl::workload("MobileNetV2")),
                      opt);
  bool completed = false;
  trainer.start([&](const dl::TrainingResult& r) { completed = r.completed; });
  sys.sim().run();
  EXPECT_TRUE(completed);
  TraceRun out;
  if (prof) {
    prof->finalize();
    sys.sim().setProfiler(nullptr);
    out.dump = prof->chromeTrace().dump(-1);
    out.records = prof->recordCount();
    out.profiler = prof;
  }
  return out;
}

TEST(ProfilerTrace, DeterministicAcrossIdenticalRuns) {
  const TraceRun a = runTinyDdp(true);
  const TraceRun b = runTinyDdp(true);
  EXPECT_GT(a.records, 0u);
  EXPECT_EQ(a.dump, b.dump);
}

TEST(ProfilerTrace, UninstrumentedRunStillCompletes) {
  const TraceRun r = runTinyDdp(false);
  EXPECT_EQ(r.records, 0u);
}

TEST(ProfilerTrace, SpansNestAndTimesAreMonotonic) {
  const TraceRun run = runTinyDdp(true);
  const falcon::Json doc = falcon::Json::parse(run.dump);
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_GT(events.size(), 10u);

  std::map<std::int64_t, int> depth;  // per-tid open B spans
  double last_ts = 0.0;
  bool first = true;
  std::set<std::string> names;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").asString();
    if (ph == "M") continue;
    const double ts = e.at("ts").asDouble();
    if (!first) {
      EXPECT_GE(ts, last_ts);  // records append in event order
    }
    last_ts = ts;
    first = false;
    const std::int64_t tid = e.at("tid").asInt();
    if (ph == "B") {
      ++depth[tid];
    } else if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "unbalanced E on tid " << tid;
    } else if (ph == "b" || ph == "e") {
      EXPECT_NE(e.find("id"), nullptr);
    }
    if (const auto* n = e.find("name")) names.insert(n->asString());
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "track " << tid << " ended with open spans";
  }

  // The trainer/collectives/fabric layers all contributed spans.
  for (const char* required :
       {"iteration", "forward", "backward", "gradient-sync", "optimizer",
        "step-overhead", "checkpoint", "prefetch", "h2d", "allReduce"}) {
    EXPECT_TRUE(names.count(required)) << "missing span '" << required << "'";
  }
  // Per-link counters were published.
  bool link_counter = false;
  for (const auto& n : names) {
    if (n.rfind("link:", 0) == 0) link_counter = true;
  }
  EXPECT_TRUE(link_counter) << "no link utilization counters in trace";
}

TEST(ProfilerTrace, LinkCountersStayInRange) {
  const TraceRun run = runTinyDdp(true);
  const falcon::Json doc = falcon::Json::parse(run.dump);
  int counter_records = 0;
  for (const auto& e : doc.at("traceEvents").asArray()) {
    if (e.at("ph").asString() != "C") continue;
    const std::string name = e.at("name").asString();
    if (name.rfind("link:", 0) != 0) continue;
    ++counter_records;
    const auto& args = e.at("args");
    if (const auto* u = args.find("util_pct")) {
      EXPECT_GE(u->asDouble(), 0.0);
      EXPECT_LE(u->asDouble(), 100.0 + 1e-6);
    }
    if (const auto* f = args.find("flows")) {
      EXPECT_GE(f->asDouble(), 0.0);
    }
  }
  EXPECT_GT(counter_records, 0);
}

// --- export order against the full sort it replaces ---

/// The (time, tid, record sequence) stable sort over every record that
/// exportOrder() used to run: the reference its one-pass form must equal.
std::vector<std::size_t> fullSortExportOrder(const Profiler& prof) {
  const auto& recs = prof.records();
  std::vector<std::size_t> order(recs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&recs](std::size_t a, std::size_t b) {
                     if (recs[a].time != recs[b].time) {
                       return recs[a].time < recs[b].time;
                     }
                     if (recs[a].tid != recs[b].tid) {
                       return recs[a].tid < recs[b].tid;
                     }
                     return a < b;
                   });
  return order;
}

void expectExportOrderMatchesFullSort(const Profiler& prof) {
  const std::vector<std::size_t> want = fullSortExportOrder(prof);
  // Not vacuous: the run has cross-track collisions the sort reorders.
  std::size_t moved = 0;
  for (std::size_t i = 0; i < want.size(); ++i) moved += want[i] != i;
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(prof.exportOrder(), want);
}

core::ExperimentOptions tracedBertOptions(int iterations) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = iterations;
  opt.trace = true;
  return opt;
}

TEST(ProfilerTrace, ExportOrderMatchesFullSortOnBertFalconRun) {
  const auto r = core::Experiment::run(SystemConfig::FalconGpus,
                                       dl::workload("BERT-L"),
                                       tracedBertOptions(10));
  ASSERT_NE(r.profiler, nullptr);
  expectExportOrderMatchesFullSort(*r.profiler);
}

TEST(ProfilerTrace, ExportOrderMatchesFullSortOnRunResumedFromSnapshot) {
  const auto model = dl::workload("BERT-L");
  auto opt = tracedBertOptions(6);
  opt.warm_prefix = 3;
  core::WarmedExperiment donor(SystemConfig::FalconGpus, model, opt);
  const auto r = core::WarmedExperiment::resumeFromSnapshot(
      SystemConfig::FalconGpus, model, opt, donor.snapshot());
  ASSERT_NE(r.profiler, nullptr);
  expectExportOrderMatchesFullSort(*r.profiler);
}

// --- experiment wiring ---

TEST(ProfilerTrace, ExperimentTraceOptionProducesProfiler) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 2;
  opt.trace = true;
  const auto r =
      core::Experiment::run(SystemConfig::LocalGpus, dl::workload("MobileNetV2"), opt);
  ASSERT_NE(r.profiler, nullptr);
  EXPECT_GT(r.profiler->recordCount(), 0u);

  // Round-trip through the file writer.
  const std::string path = ::testing::TempDir() + "composim_trace_test.json";
  const Status w = r.profiler->writeChromeTrace(path);
  ASSERT_TRUE(w.ok) << w.toString();
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const falcon::Json doc = falcon::Json::parse(buf.str());
  EXPECT_GT(doc.at("traceEvents").asArray().size(), 0u);
  EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
  std::remove(path.c_str());

  // The run-level span is present.
  bool experiment_span = false;
  for (const auto& e : doc.at("traceEvents").asArray()) {
    const auto* n = e.find("name");
    if (n && n->asString() == "MobileNetV2") experiment_span = true;
  }
  EXPECT_TRUE(experiment_span);
}

TEST(ProfilerTrace, NoTraceOptionMeansNoProfiler) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 2;
  const auto r =
      core::Experiment::run(SystemConfig::LocalGpus, dl::workload("MobileNetV2"), opt);
  EXPECT_EQ(r.profiler, nullptr);
}

}  // namespace
}  // namespace composim::telemetry
