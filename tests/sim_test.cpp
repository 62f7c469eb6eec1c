// Unit tests for the discrete-event kernel, RNG streams and units.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace composim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.eventsExecuted(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesResolveInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(5.0, [&] {
    sim.schedule(-1.0, [&] { EXPECT_DOUBLE_EQ(sim.now(), 5.0); });
  });
  sim.run();
  EXPECT_EQ(sim.eventsExecuted(), 2u);
}

TEST(Simulator, EventsScheduledDuringExecutionRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(1.0, recurse);
  };
  sim.schedule(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelReturnsFalseForExecutedEvent) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, DoubleCancelReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  EXPECT_FALSE(sim.cancel(12345));
}

TEST(Simulator, PendingEventsExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  EXPECT_EQ(sim.pendingEvents(), 2u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pendingEvents(), 1u);
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.eventsExecuted(), 1u);
}

TEST(Simulator, EmptyWhenEveryPendingEventIsCancelled) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(sim.schedule(1.0, [] {}));
  for (EventId id : ids) EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_TRUE(sim.empty());
  sim.run();
  EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(Simulator, MassCancellationLeavesEmptyHeap) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(sim.schedule(static_cast<double>(i), [] {}));
  }
  // Every cancel erases its key in place, so nothing is left behind.
  for (EventId id : ids) EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.eventsExecuted(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, SlotReuseDoesNotResurrectOldIds) {
  Simulator sim;
  const EventId a = sim.schedule(1.0, [] {});
  sim.run();  // `a` executes; its slot returns to the free list
  const EventId b = sim.schedule(1.0, [] {});
  EXPECT_NE(a, b);  // generation bumped even though the slot is reused
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_TRUE(sim.cancel(b));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule(static_cast<double>(i), [&] { ++count; });
  }
  sim.runUntil(3.0);
  EXPECT_EQ(count, 3);  // events at t=1,2,3 inclusive
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run();
  EXPECT_EQ(count, 5);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.schedule(10.0, [] {});
  sim.runUntil(4.0);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ThrowsOnEmptyAction) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(1.0, Simulator::Action{}), std::invalid_argument);
}

TEST(Simulator, RunRespectsMaxEvents) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.schedule(1.0, [&] { ++count; });
  sim.run(4);
  EXPECT_EQ(count, 4);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformWithinUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng r(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::microseconds(2.5), 2.5e-6);
  EXPECT_DOUBLE_EQ(units::milliseconds(3.0), 3e-3);
  EXPECT_EQ(units::MiB(1), 1048576);
  EXPECT_EQ(units::GB(2), 2000000000);
  EXPECT_DOUBLE_EQ(units::GBps(1.0), 1e9);
  EXPECT_DOUBLE_EQ(units::Gbps(8.0), 1e9);
  EXPECT_DOUBLE_EQ(units::to_GBps(units::GBps(12.25)), 12.25);
  EXPECT_DOUBLE_EQ(units::TFLOPS(125.0), 1.25e14);
}

TEST(Units, Formatting) {
  EXPECT_EQ(formatBytes(units::GB(2)), "2.00 GB");
  EXPECT_EQ(formatBandwidth(units::GBps(12.5)), "12.50 GB/s");
  EXPECT_EQ(formatTime(units::microseconds(1.85)), "1.85 us");
  EXPECT_EQ(formatTime(0.127), "127.00 ms");
  EXPECT_EQ(formatTime(300.0), "5.0 min");
}

// Property sweep: a batch of events with random times executes in
// nondecreasing time order regardless of insertion order.
class SimulatorOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorOrderProperty, MonotonicExecution) {
  Simulator sim;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> seen;
  for (int i = 0; i < 200; ++i) {
    sim.schedule(rng.uniform(0.0, 100.0), [&] { seen.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(seen.size(), 200u);
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_LE(seen[i - 1], seen[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrderProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Equivalence sweep: a seeded mix of schedule, cancel, step and runUntil
// against a std::set of (time, scheduling order) keys. Delays sit on a
// coarse grid so equal-time events are common; cancels hit pending,
// executed and already-cancelled events and the current top; actions
// schedule and cancel from inside the run. Execution order, every cancel
// result and pendingEvents() must match the reference.
class SimulatorQueueEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorQueueEquivalence, MatchesOrderedSetReference) {
  using Key = std::pair<SimTime, std::uint64_t>;
  Simulator sim;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::set<Key> pending;
  std::map<Key, EventId> id_of;
  std::vector<std::pair<EventId, Key>> issued;
  std::vector<std::uint64_t> ran, expected;
  std::uint64_t next_seq = 0;

  const auto delay = [&] { return 0.25 * static_cast<double>(rng.uniformInt(0, 8)); };
  const auto cancelBoth = [&](EventId id, const Key& key) {
    const bool live = pending.erase(key) > 0;
    EXPECT_EQ(sim.cancel(id), live);
  };
  const auto cancelTop = [&] {
    if (!pending.empty()) cancelBoth(id_of.at(*pending.begin()), *pending.begin());
  };
  std::function<void(SimTime)> scheduleBoth = [&](SimTime d) {
    const Key key{sim.now() + d, next_seq++};
    const EventId id = sim.schedule(d, [&, key] {
      ran.push_back(key.second);
      ASSERT_FALSE(pending.empty());
      expected.push_back(pending.begin()->second);
      EXPECT_EQ(sim.now(), pending.begin()->first);
      pending.erase(pending.begin());
      if (key.second % 5 == 0) scheduleBoth(delay());
      if (key.second % 7 == 0) cancelTop();
    });
    pending.insert(key);
    id_of[key] = id;
    issued.emplace_back(id, key);
  };

  for (int op = 0; op < 3000; ++op) {
    switch (rng.uniformInt(0, 9)) {
      case 0: case 1: case 2: case 3:
        scheduleBoth(delay());
        break;
      case 4:
        if (!issued.empty()) {
          const auto& [id, key] = issued[static_cast<std::size_t>(
              rng.uniformInt(0, static_cast<std::int64_t>(issued.size()) - 1))];
          cancelBoth(id, key);
        }
        break;
      case 5:
        cancelTop();
        break;
      case 6: case 7: {
        const bool had = !pending.empty();
        EXPECT_EQ(sim.step(), had);
        break;
      }
      case 8: {
        const SimTime until = sim.now() + delay();
        sim.runUntil(until);
        if (!pending.empty()) {
          EXPECT_GT(pending.begin()->first, until);
          EXPECT_EQ(sim.now(), until);
        }
        break;
      }
      default:
        if (!pending.empty()) {
          auto it = pending.begin();
          std::advance(it, rng.uniformInt(0, static_cast<std::int64_t>(pending.size()) - 1));
          const Key key = *it;
          cancelBoth(id_of.at(key), key);
        }
        break;
    }
    ASSERT_EQ(sim.pendingEvents(), pending.size());
    ASSERT_EQ(sim.empty(), pending.empty());
  }
  sim.run();
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(sim.eventsExecuted(), ran.size());
  EXPECT_GT(ran.size(), 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorQueueEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace composim
