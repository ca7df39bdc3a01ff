#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace riptide::sim {

class Simulator;

// Handle used to cancel a scheduled event. The handle is a (slot,
// generation) ticket into the simulator's event slab: cancelling bumps the
// slot's generation so any queued reference to it reads as dead, and a
// stale handle (fired, cancelled, or slot since reused) reads as invalid
// and cancels nothing. Cancellation is an O(1) intrusive unlink, so TCP
// retransmission timers, which are rearmed on every ACK, never leave
// garbage behind.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event (if still pending) and releases the handle: a
  // cancelled handle reads as invalid, so guards like
  // `if (timer.valid()) return;` rearm correctly after cancellation.
  // Precondition: the simulator that issued the handle must still be
  // alive (holders are members of objects owned by the experiment, which
  // destroys them before its simulator).
  void cancel();

  // True while the event (or periodic series) is still scheduled.
  bool valid() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

// Single-threaded discrete-event simulator. Events at equal timestamps fire
// in scheduling (FIFO) order, which keeps runs deterministic.
//
// Representation: one hierarchical timer wheel holds every pending event.
// Levels 0 and 1 are wide 4096-bucket windows (1 ns and 4.1 µs buckets
// respectively, so the microsecond-scale transmission events insert at
// their final position with no cascading and millisecond-scale RTT events
// cascade exactly once), topped by seven 64-bucket levels whose bucket
// width is the span of the level below. The top level's buckets are 2^60
// ns wide, so the wheel covers every non-negative int64 tick. Scheduling
// and cancellation are O(1) (insert is an intrusive push, cancel an
// intrusive unlink — no lazy garbage, no stop-the-world compaction), and
// dispatch pops whole level-0 buckets as run-lists, one batch per
// timestamp. Exact (when, seq) dispatch order is preserved: a level-0
// bucket holds exactly one timestamp, and its run-list is sorted by seq
// before executing, so cascade order can never leak into dispatch order.
class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() { heads_.fill(kNil); }

  Time now() const { return now_; }

  // Schedules `cb` to run at now() + delay. Precondition: delay >= 0.
  EventHandle schedule(Time delay, Callback cb);
  EventHandle schedule_at(Time when, Callback cb);

  // Schedules `cb` every `interval`, starting at now() + initial_delay.
  // The returned handle cancels all future firings (including from inside
  // the callback itself).
  EventHandle schedule_periodic(Time initial_delay, Time interval, Callback cb);

  // Runs events until the queue empties or `deadline` is reached; events
  // scheduled exactly at the deadline still run. Returns the number of
  // events executed.
  std::uint64_t run_until(Time deadline);

  // Runs until the queue is empty. Use run_until for open-loop workloads
  // that generate events forever.
  std::uint64_t run();

  // Stops the current run_* call after the in-flight event completes.
  void stop() { stopped_ = true; }

  // Destroys every scheduled callback without running it and invalidates
  // all outstanding handles. For finished simulations whose owner is about
  // to cross a thread boundary: pending callbacks can capture pooled
  // segments, and the thread-local SegmentPool they must return to dies
  // with the thread that ran the simulation, so a worker drains here
  // before handing the experiment back. Must not be called from inside a
  // running callback. In debug builds, asserts the thread-local segment
  // pool is empty afterwards ("no live segments" is the property that
  // proves the drain worked) — the cross-thread pool-escape class of bug
  // then fails fast at the drain site instead of only under ASan.
  void drop_pending();

  std::uint64_t events_executed() const { return executed_; }

  // Scheduled, not-yet-fired, not-yet-cancelled events. Cancellation
  // unlinks eagerly, so no cancelled event is ever counted.
  std::size_t pending_events() const { return live_; }

 private:
  friend class EventHandle;

  // Levels 0 and 1: 2^12 buckets each (bitmapped as 64 words + a summary
  // word), 1 ns and 2^12 ns wide. Upper levels 2..8: 64 buckets each,
  // level L covering 2^(24 + 6(L-1)) ns. upper_shift(L) = 24 + 6(L-2)
  // converts a tick to a level-L bucket number for L >= 2; the top
  // level's shift is 60, so its 2^63 ns of non-negative ticks use only
  // buckets 0..7.
  static constexpr int kLevel0Bits = 12;
  static constexpr std::size_t kLevel0Buckets = std::size_t{1}
                                               << kLevel0Bits;
  static constexpr int kLevel1Bits = 12;
  static constexpr std::size_t kLevel1Buckets = std::size_t{1}
                                               << kLevel1Bits;
  static constexpr int kUpperBits = 6;
  static constexpr std::size_t kBuckets = std::size_t{1} << kUpperBits;
  static constexpr int kLevels = 9;  // levels 0-1 wide + 7 upper levels
  static constexpr std::size_t kUpperBase = kLevel0Buckets + kLevel1Buckets;
  static constexpr std::size_t kWheelBuckets =
      kUpperBase + (kLevels - 2) * kBuckets;
  static constexpr std::uint32_t kNil = 0xFFFFFFFF;
  static constexpr std::uint64_t kInfTick = ~std::uint64_t{0};

  static constexpr int upper_shift(int level) {
    return kLevel0Bits + kLevel1Bits + kUpperBits * (level - 2);
  }

  // EventNode::where values: 0..kWheelBuckets-1 name the containing wheel
  // bucket (level 0, then level 1, then level 2..8 blocks of 64); the
  // sentinels mark the other residences.
  static constexpr std::uint16_t kWhereRun = 0xFFFE;
  static constexpr std::uint16_t kWhereNone = 0xFFFF;

  // The slab is split hot/cold by access pattern. EventNode is the
  // intrusive wheel node — everything cascades, unlinks, and seq sorting
  // touch — kept to one 32-byte half-line so redistributing a bucket
  // walks dense memory. The callback and periodic interval live in the
  // parallel EventData array and are touched only at schedule, dispatch,
  // and release. prev/next are slot indices, so slab reallocation never
  // invalidates a link; `gen` is bumped whenever the slot's current event
  // ends (fires, is cancelled, or the slot is reused), which invalidates
  // every outstanding (slot, gen) ticket for it.
  struct EventNode {
    std::uint64_t when = 0;   // absolute ns tick
    std::uint64_t seq = 0;    // tie-break: FIFO among equal timestamps
    std::uint32_t gen = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint16_t where = kWhereNone;
  };
  static_assert(sizeof(EventNode) == 32, "keep the hot node half-line sized");

  struct EventData {
    Callback cb;
    Time interval{};  // > zero() for periodic events
  };

  // Detached level-0 bucket entry awaiting dispatch, sorted by seq (the
  // whole bucket shares one timestamp).
  struct RunEntry {
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void release_node(std::uint32_t slot);
  void insert_event(std::uint32_t slot);
  void link_into_bucket(std::uint32_t slot, std::size_t bucket);
  void unlink_from_bucket(std::uint32_t slot);
  void mark_occupied(std::size_t bucket);
  void clear_occupied(std::size_t bucket);
  void cancel_event(std::uint32_t slot, std::uint32_t gen);
  bool event_pending(std::uint32_t slot, std::uint32_t gen) const;
  std::uint64_t earliest_level0() const;
  std::uint64_t earliest_cascade_start() const;
  void flush_perf_counters(std::uint64_t dispatched);
  void cascade_at(std::uint64_t boundary);
  bool seek(std::uint64_t limit, bool bounded, std::uint64_t* out_tick);
  std::uint64_t dispatch_bucket(std::uint64_t tick);
  void requeue_run_tail(std::size_t from);

  Time now_;
  std::uint64_t cursor_ = 0;  // wheel position in ns; == now_.ns() between runs
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  bool in_flight_ = false;     // an event's callback is executing
  bool dispatching_ = false;   // a level-0 run-list is being drained
  std::uint32_t in_flight_slot_ = 0;
  std::uint32_t in_flight_gen_ = 0;
  std::uint64_t dispatch_tick_ = 0;
  std::size_t live_ = 0;  // scheduled and not cancelled
  // Lower bound on the next cascade boundary; 0 means
  // unknown (forces the full per-level scan). While the earliest level-0
  // tick stays below this floor, seek() can dispatch without rescanning
  // the upper levels — the common case when a burst of near-future
  // events drains. Inserts into the upper levels pull the floor down;
  // consuming a boundary resets it to 0.
  std::uint64_t boundary_floor_ = 0;
  // Scheduler work counters, accumulated locally and flushed into the
  // thread-local perf::Counters once per run_* call — the dispatch loop
  // never pays a TLS lookup per event.
  std::uint64_t pend_cascaded_ = 0;
  std::uint64_t pend_buckets_ = 0;
  std::vector<EventNode> nodes_;  // hot intrusive nodes, indexed by slot
  std::vector<EventData> data_;   // cold callback/interval, same indexing
  std::vector<std::uint32_t> free_slots_;
  std::array<std::uint32_t, kWheelBuckets> heads_;
  // Occupancy for the wide levels 0 and 1 is a two-level bitmap over
  // their 4096 buckets: bit g of the summary is set iff words[g] is
  // non-zero. Upper levels get one 64-bit word each (upper_occupied_'s
  // first two entries are unused padding so the array indexes by level).
  std::uint64_t l0_summary_ = 0;
  std::array<std::uint64_t, kLevel0Buckets / 64> l0_words_{};
  std::uint64_t l1_summary_ = 0;
  std::array<std::uint64_t, kLevel1Buckets / 64> l1_words_{};
  std::array<std::uint64_t, kLevels> upper_occupied_{};
  std::vector<RunEntry> run_;  // scratch run-list, reused
};

inline void EventHandle::cancel() {
  if (sim_ != nullptr) {
    sim_->cancel_event(slot_, gen_);
    sim_ = nullptr;
  }
}

inline bool EventHandle::valid() const {
  return sim_ != nullptr && sim_->event_pending(slot_, gen_);
}

}  // namespace riptide::sim
