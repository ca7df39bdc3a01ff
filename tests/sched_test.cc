// Scheduler-specific suite for the timer-wheel event queue
// (sim/simulator.{h,cc}): a differential property test that drives random
// schedule/cancel/run_until interleavings through the wheel and a
// reference model and demands identical (when, seq) dispatch order, plus
// directed tests for the seams the wheel added — the top levels that hold
// far-future events, cascade boundaries, run-list requeue on stop()/throw,
// and the pending count and perf counters the benches rely on.
//
// Registered under the `sched` ctest label so CI can run the scheduler
// suite on its own (including under ASan/UBSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "stats/perf.h"

namespace riptide::sim {
namespace {

// ------------------------------------------------- differential property

// Reference model: the scheduler contract is "events fire in (when, seq)
// order, cancelled events do not fire". The model keeps every scheduled
// event with its global seq and replays them with a stable sort — no
// wheel — so any divergence indicts the wheel's cascade / run-list
// machinery.
struct ModelEvent {
  std::int64_t when_ns;
  std::uint64_t seq;
  int id;
  bool cancelled = false;
  bool fired = false;
};

class ReferenceModel {
 public:
  void schedule(std::int64_t when_ns, std::uint64_t seq, int id) {
    events_.push_back(ModelEvent{when_ns, seq, id});
  }

  void cancel(int id) {
    for (ModelEvent& e : events_) {
      if (e.id == id && !e.fired) e.cancelled = true;
    }
  }

  // Fires everything due by `deadline_ns` into `log`, in (when, seq) order.
  void run_until(std::int64_t deadline_ns, std::vector<int>& log) {
    std::vector<ModelEvent*> due;
    for (ModelEvent& e : events_) {
      if (!e.fired && !e.cancelled && e.when_ns <= deadline_ns) {
        due.push_back(&e);
      }
    }
    std::sort(due.begin(), due.end(), [](const ModelEvent* a,
                                         const ModelEvent* b) {
      if (a->when_ns != b->when_ns) return a->when_ns < b->when_ns;
      return a->seq < b->seq;
    });
    for (ModelEvent* e : due) {
      e->fired = true;
      log.push_back(e->id);
    }
  }

  std::size_t live() const {
    std::size_t n = 0;
    for (const ModelEvent& e : events_) {
      if (!e.fired && !e.cancelled) ++n;
    }
    return n;
  }

 private:
  std::vector<ModelEvent> events_;
};

// Delay magnitudes spanning the wheel's levels: same-tick, level-0
// (ns..µs), level-1 (µs..ms), the coarse upper levels (ms..days), level 7
// (Time::hours(6000) = 250 days, past 2^54 ns) and level 8 (2^56..2^58
// ns, ~2..9 simulated years, the top level from any cursor past 2^60 ns).
// Nothing larger: the run adds delays and steps of this size thousands of
// times, and now() + delay must stay below 2^63 ns.
std::int64_t random_delay_ns(Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0: return 0;
    case 1: return rng.uniform_int(1, 4095);                       // level 0
    case 2: return rng.uniform_int(4096, 1 << 24);                 // level 1
    case 3: return rng.uniform_int(1 << 24, std::int64_t{1} << 34);
    case 4: return rng.uniform_int(std::int64_t{1} << 34,
                                   std::int64_t{1} << 44);
    case 5: return rng.uniform_int(std::int64_t{1} << 50,
                                   std::int64_t{1} << 53);
    case 6:
      return Time::hours(6000).ns() +
             rng.uniform_int(0, std::int64_t{1} << 30);  // level 7
    default:
      return rng.uniform_int(std::int64_t{1} << 56, std::int64_t{1} << 58);
  }
}

TEST(SchedulerPropertyTest, MatchesReferenceModelAcrossRandomInterleavings) {
  for (std::uint64_t seed : {11u, 23u, 47u, 91u}) {
    Rng rng(seed);
    Simulator sim;
    ReferenceModel model;
    std::vector<int> sim_log;
    std::vector<int> model_log;
    std::vector<std::pair<int, EventHandle>> live;
    std::uint64_t seq = 0;
    int next_id = 0;

    for (int op = 0; op < 3000; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      if (kind < 6) {
        const std::int64_t delay = random_delay_ns(rng);
        const int id = next_id++;
        EventHandle h = sim.schedule(
            Time::nanoseconds(delay),
            [id, &sim_log] { sim_log.push_back(id); });
        model.schedule(sim.now().ns() + delay, seq++, id);
        live.emplace_back(id, h);
      } else if (kind < 8) {
        if (live.empty()) continue;
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        live[pick].second.cancel();
        model.cancel(live[pick].first);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Step sizes again span the levels, so run_until deadlines land
        // mid-bucket and on cascade boundaries.
        const std::int64_t step = random_delay_ns(rng) / 16 + 1;
        const Time deadline = sim.now() + Time::nanoseconds(step);
        sim.run_until(deadline);
        model.run_until(deadline.ns(), model_log);
        ASSERT_EQ(sim_log, model_log) << "seed " << seed << " op " << op;
        ASSERT_EQ(sim.pending_events(), model.live())
            << "seed " << seed << " op " << op;
      }
    }
    // Drain everything, the top levels included.
    sim.run();
    model.run_until(std::numeric_limits<std::int64_t>::max(), model_log);
    EXPECT_EQ(sim_log, model_log) << "seed " << seed;
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

// ------------------------------------------------------- directed seams

TEST(SchedulerTest, SameTickScheduleFromCallbackRunsAfterBucketFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Time::microseconds(1), [&] {
    order.push_back(1);
    // Same timestamp as the bucket being dispatched: must run in this
    // same run_* call, after every event already queued at this tick.
    sim.schedule(Time::zero(), [&] { order.push_back(3); });
  });
  sim.schedule(Time::microseconds(1), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, FarFutureEventsFireFromTheTopLevels) {
  Simulator sim;
  std::vector<int> order;
  // 6000 h (past 2^54 ns) sits at level 7 and the largest tick at level
  // 8; both cascade down through every level below before they fire.
  const Time last = Time::nanoseconds(std::numeric_limits<std::int64_t>::max());
  sim.schedule(Time::hours(6000), [&] { order.push_back(2); });
  sim.schedule_at(last, [&] { order.push_back(4); });
  sim.schedule(Time::hours(6000) + Time::nanoseconds(1),
               [&] { order.push_back(3); });
  sim.schedule(Time::milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_at(last, [&] { order.push_back(5); });
  EXPECT_EQ(sim.pending_events(), 5u);
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.now(), last);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SchedulerTest, CancellationIsEagerAtEveryLevel) {
  Simulator sim;
  std::vector<EventHandle> near;
  for (int i = 0; i < 100; ++i) {
    near.push_back(sim.schedule(Time::milliseconds(i + 1), [] {}));
  }
  EventHandle far = sim.schedule(Time::hours(6000), [] {});
  EXPECT_EQ(sim.pending_events(), 101u);
  for (auto& h : near) h.cancel();
  // Every cancellation unlinks at once; nothing cancelled stays counted.
  EXPECT_EQ(sim.pending_events(), 1u);
  far.cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(SchedulerTest, StopMidBucketRequeuesRemainderInOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(Time::microseconds(1), [&order, &sim, i] {
      order.push_back(i);
      if (i == 1) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  // The abandoned run-list tail was relinked: a fresh run fires the rest
  // in the original FIFO order.
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, ThrowMidBucketConsumesThrowerAndRequeuesRest) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.schedule(Time::microseconds(1), [&order, i] {
      order.push_back(i);
      if (i == 1) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  sim.run();
  // The throwing event is consumed, not retried; survivors keep order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerTest, PeriodicTimerCrossesCascadeBoundariesExactly) {
  Simulator sim;
  // 5 ms lands in level 1 / level 2 territory, so every firing re-enters
  // the wheel above level 0 and must cascade back down on time.
  std::vector<std::int64_t> fire_ns;
  sim.schedule_periodic(Time::milliseconds(5), Time::milliseconds(5),
                        [&] { fire_ns.push_back(sim.now().ns()); });
  sim.run_until(Time::milliseconds(100));
  ASSERT_EQ(fire_ns.size(), 20u);
  for (std::size_t i = 0; i < fire_ns.size(); ++i) {
    EXPECT_EQ(fire_ns[i], Time::milliseconds(5).ns() *
                              static_cast<std::int64_t>(i + 1));
  }
}

TEST(SchedulerTest, CascadeAndBucketCountersAttributeWork) {
  Simulator sim;
  const perf::Counters before = perf::local();
  std::uint64_t fired = 0;
  // 5 ms from t=0 sits above level 0, so dispatching it requires at least
  // one cascade; each dispatched timestamp costs exactly one bucket.
  sim.schedule(Time::milliseconds(5), [&] { ++fired; });
  sim.schedule(Time::milliseconds(5), [&] { ++fired; });
  sim.schedule(Time::microseconds(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 3u);
  const perf::Counters delta = perf::local().delta_since(before);
  EXPECT_EQ(delta.events_dispatched, 3u);
  EXPECT_GE(delta.events_cascaded, 2u);       // both 5 ms events moved down
  EXPECT_EQ(delta.timer_buckets_dispatched, 2u);  // two distinct timestamps
}

TEST(SchedulerTest, RearmChurnLeavesNoGarbage) {
  Simulator sim;
  EventHandle rto;
  std::uint64_t fired = 0;
  for (int i = 0; i < 50'000; ++i) {
    rto.cancel();
    rto = sim.schedule(Time::milliseconds(200), [&] { ++fired; });
    // Eager unlink: exactly one live timer, no cancelled residue.
    ASSERT_EQ(sim.pending_events(), 1u);
  }
  sim.run();
  EXPECT_EQ(fired, 1u);
}

}  // namespace
}  // namespace riptide::sim
