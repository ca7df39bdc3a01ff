#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/number.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace riptide::sim {
namespace {

// ------------------------------------------------------------------- Time

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(Time::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Time::milliseconds(3).ns(), 3'000'000);
  EXPECT_EQ(Time::microseconds(5).ns(), 5'000);
  EXPECT_EQ(Time::minutes(2), Time::seconds(120));
  EXPECT_EQ(Time::hours(1), Time::minutes(60));
}

TEST(TimeTest, FractionalConstructors) {
  EXPECT_EQ(Time::from_seconds(0.5), Time::milliseconds(500));
  EXPECT_EQ(Time::from_milliseconds(1.5), Time::microseconds(1500));
}

TEST(TimeTest, Arithmetic) {
  const Time a = Time::milliseconds(10);
  const Time b = Time::milliseconds(4);
  EXPECT_EQ(a + b, Time::milliseconds(14));
  EXPECT_EQ(a - b, Time::milliseconds(6));
  EXPECT_EQ(a * 3, Time::milliseconds(30));
  EXPECT_EQ(a / 2, Time::milliseconds(5));
  EXPECT_DOUBLE_EQ(a / b, 2.5);
}

TEST(TimeTest, ComparisonAndAccessors) {
  EXPECT_LT(Time::zero(), Time::nanoseconds(1));
  EXPECT_DOUBLE_EQ(Time::milliseconds(250).to_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(Time::microseconds(1500).to_milliseconds(), 1.5);
}

TEST(TimeTest, NegativeDifferencesRepresentable) {
  const Time d = Time::zero() - Time::seconds(1);
  EXPECT_LT(d, Time::zero());
  EXPECT_EQ(d.ns(), -1'000'000'000);
}

// -------------------------------------------------------------- Simulator

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Time::milliseconds(20), [&] { order.push_back(2); });
  sim.schedule(Time::milliseconds(10), [&] { order.push_back(1); });
  sim.schedule(Time::milliseconds(30), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(Time::milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NowAdvancesToEventTime) {
  Simulator sim;
  Time seen;
  sim.schedule(Time::milliseconds(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, Time::milliseconds(7));
}

TEST(SimulatorTest, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(Time::zero() - Time::seconds(1), [] {}),
               std::invalid_argument);
}

TEST(SimulatorTest, ScheduleAtPastThrows) {
  Simulator sim;
  sim.schedule(Time::seconds(2), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(Time::seconds(1), [] {}),
               std::invalid_argument);
}

TEST(SimulatorTest, CancelledEventDoesNotRun) {
  Simulator sim;
  bool ran = false;
  auto handle = sim.schedule(Time::seconds(1), [&] { ran = true; });
  handle.cancel();
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule(Time::seconds(1), [&] { ++count; });
  sim.schedule(Time::seconds(5), [&] { ++count; });
  sim.run_until(Time::seconds(2));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), Time::seconds(2));
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, EventsExactlyAtDeadlineRun) {
  Simulator sim;
  bool ran = false;
  sim.schedule(Time::seconds(2), [&] { ran = true; });
  sim.run_until(Time::seconds(2));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Time::seconds(1), [&] {
    order.push_back(1);
    sim.schedule(Time::seconds(1), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), Time::seconds(2));
}

TEST(SimulatorTest, PeriodicFiresRepeatedlyUntilCancelled) {
  Simulator sim;
  int fires = 0;
  auto handle = sim.schedule_periodic(Time::seconds(1), Time::seconds(1),
                                      [&] { ++fires; });
  sim.run_until(Time::seconds(5));
  EXPECT_EQ(fires, 5);
  handle.cancel();
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(fires, 5);
}

TEST(SimulatorTest, PeriodicInitialDelayIndependentOfInterval) {
  Simulator sim;
  std::vector<Time> at;
  sim.schedule_periodic(Time::zero(), Time::seconds(2),
                        [&] { at.push_back(sim.now()); });
  sim.run_until(Time::seconds(5));
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], Time::zero());
  EXPECT_EQ(at[1], Time::seconds(2));
  EXPECT_EQ(at[2], Time::seconds(4));
}

TEST(SimulatorTest, PeriodicZeroIntervalThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_periodic(Time::zero(), Time::zero(), [] {}),
               std::invalid_argument);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_periodic(Time::seconds(1), Time::seconds(1), [&] {
    if (++count == 3) sim.stop();
  });
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule(Time::seconds(i + 1), [] {});
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ----------------------------------------------- slab + handle lifecycle

TEST(SimulatorTest, HandleInvalidAfterOneShotFires) {
  Simulator sim;
  auto handle = sim.schedule(Time::seconds(1), [] {});
  EXPECT_TRUE(handle.valid());
  sim.run();
  EXPECT_FALSE(handle.valid());
  handle.cancel();  // must be a harmless no-op
}

TEST(SimulatorTest, StaleHandleDoesNotCancelSlotReuser) {
  Simulator sim;
  bool second_ran = false;
  auto first = sim.schedule(Time::seconds(1), [] {});
  first.cancel();
  // The freed slot is reused (bumped generation) by the next schedule.
  auto second = sim.schedule(Time::seconds(2), [&] { second_ran = true; });
  EXPECT_FALSE(first.valid());
  first.cancel();  // stale: generation mismatch, must not touch `second`
  EXPECT_TRUE(second.valid());
  sim.run();
  EXPECT_TRUE(second_ran);
}

TEST(SimulatorTest, CancelInsideOwnPeriodicCallback) {
  Simulator sim;
  int fires = 0;
  EventHandle handle;
  handle = sim.schedule_periodic(Time::seconds(1), Time::seconds(1), [&] {
    if (++fires == 3) handle.cancel();
  });
  sim.run_until(Time::seconds(10));
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelOtherEventFromCallback) {
  Simulator sim;
  bool victim_ran = false;
  auto victim = sim.schedule(Time::seconds(2), [&] { victim_ran = true; });
  sim.schedule(Time::seconds(1), [&] { victim.cancel(); });
  sim.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, MoveOnlyCallbackCapture) {
  Simulator sim;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  sim.schedule(Time::seconds(1),
               [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(SimulatorTest, ThrowingCallbackReleasesSlotAndPropagates) {
  Simulator sim;
  sim.schedule(Time::seconds(1), [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Regression for the cancelled-timer leak: a connection-heavy workload
// schedules and immediately cancels millions of RTO-style timers. The
// dead entries must not accumulate: the queue holds only live events.
TEST(SimulatorTest, MassCancellationKeepsQueueBounded) {
  Simulator sim;
  constexpr int kTimers = 1'000'000;
  std::size_t peak = 0;
  for (int i = 0; i < kTimers; ++i) {
    auto h = sim.schedule(Time::seconds(100), [] {});
    h.cancel();
    peak = std::max(peak, sim.pending_events());
  }
  EXPECT_EQ(peak, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, MassCancellationWithLiveEventsStaysProportional) {
  Simulator sim;
  constexpr int kLive = 100;
  for (int i = 0; i < kLive; ++i) {
    sim.schedule(Time::seconds(1 + i), [] {});
  }
  for (int i = 0; i < 100'000; ++i) {
    auto h = sim.schedule(Time::seconds(200), [] {});
    h.cancel();
  }
  EXPECT_EQ(sim.pending_events(), static_cast<std::size_t>(kLive));
  sim.run();
  EXPECT_EQ(sim.events_executed(), static_cast<std::uint64_t>(kLive));
}

TEST(SimulatorTest, RearmPatternManyGenerations) {
  Simulator sim;
  EventHandle rto;
  int fired = 0;
  for (int i = 0; i < 50'000; ++i) {
    rto.cancel();
    rto = sim.schedule(Time::milliseconds(200), [&] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 1);  // only the last armed timer fires
}

// ----------------------------------------------------------------Callback

TEST(CallbackTest, SmallCaptureStoredInline) {
  int x = 0;
  Callback cb([&x] { ++x; });
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  EXPECT_EQ(x, 1);
}

TEST(CallbackTest, LargeCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 32> big{};  // 256 bytes, exceeds the buffer
  big[31] = 7;
  std::uint64_t seen = 0;
  Callback cb([big, &seen] { seen = big[31]; });
  cb();
  EXPECT_EQ(seen, 7u);
}

TEST(CallbackTest, MovePreservesTarget) {
  int calls = 0;
  Callback a([&calls] { ++calls; });
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  Callback c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(calls, 2);
}

TEST(CallbackTest, DestructorRunsCapturedState) {
  auto counter = std::make_shared<int>(0);
  {
    Callback cb([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);  // capture destroyed with the callback
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform(0, 1) != b.uniform(0, 1)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    if (v == 0) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliDegenerateCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.1);
}

TEST(RngTest, ExponentialRejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(5.0, 1.5), 5.0);
  }
}

TEST(RngTest, ParetoRejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(rng.pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(99);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  // Distinct salts should produce distinct streams.
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (child1.uniform(0, 1) != child2.uniform(0, 1)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
  }
}

// ----------------------------------------------------------------- number

TEST(NumberTest, ReadersTakeOnlyWholeTokens) {
  EXPECT_EQ(read_u64("42"), 42u);
  EXPECT_EQ(read_u64("18446744073709551615"), 18446744073709551615u);
  for (const char* bad : {"", "x", "1x", " 1", "+1", "-1", "1.5",
                          "18446744073709551616"}) {
    EXPECT_FALSE(read_u64(bad)) << "'" << bad << "'";
  }
  // The spec grammars hand over tokens that may hold a NUL.
  EXPECT_FALSE(read_u64(std::string("1\0" "2", 3)));
  EXPECT_FALSE(read_double(std::string("1\0", 2)));

  EXPECT_EQ(read_double("0.25"), 0.25);
  EXPECT_EQ(read_double("-5"), -5.0);
  for (const char* bad : {"", "x", "1s", " 1", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(read_double(bad)) << "'" << bad << "'";
  }

  EXPECT_EQ(read_u64_list("7"), std::vector<std::uint64_t>{7});
  EXPECT_EQ(read_u64_list("1,2,3"), (std::vector<std::uint64_t>{1, 2, 3}));
  for (const char* bad : {"", "x", "1,x", "1x", "1,,2", "1,", ",1"}) {
    EXPECT_FALSE(read_u64_list(bad)) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace riptide::sim
