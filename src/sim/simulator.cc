#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "stats/perf.h"

namespace riptide::sim {
//
// Wheel geometry and invariants
// -----------------------------
//
// Ticks are absolute nanoseconds. Levels 0 and 1 are circular windows of
// 4096 buckets, 1 ns and 4096 ns wide respectively — sized so the two
// event populations dominating the experiment hot path are cheap: the
// microsecond-scale transmission/pacing events insert at their final
// level-0 resting place and never cascade, and the millisecond-scale
// RTT/delivery events sit in level 1 and cascade exactly once. Each
// upper level L in 2..8 has 64 buckets of width 2^(24 + 6(L-2)) ns, so
// shift(L) = 24 + 6(L-2) converts a tick to a level-L bucket number. An
// event is placed at the lowest level whose window covers it:
//
//   level 0 :  when - cursor_ < 4096
//   level 1 :  (when >> 12) - (cursor_ >> 12) < 4096
//   level L :  D(L) = (when >> shift(L)) - (cursor_ >> shift(L)) < 64
//
// The bucket-number rule (rather than a raw-delta rule) is what makes
// bucket indices `(when >> shift) & mask` unambiguous under wraparound,
// and it guarantees that for L >= 1 the bucket at the cursor's own index
// is always empty: D(L) == 0 implies the event fits a lower level, so it
// must have been placed there. The top level (shift 60) needs no window
// check: ticks are non-negative int64 values, below 2^63, so their level-8
// bucket numbers are 0..7 and every event has a place in the wheel.
//
// The cursor only moves through seek(): it jumps straight to the next
// event boundary (occupancy bitmaps + rotate/ctz, no per-tick stepping),
// cascading each upper-level bucket it enters down into lower levels.
// The wide levels' occupancy is a two-level bitmap (a summary word over
// 64 64-bucket groups); each upper level is a single word. Dispatch
// detaches a whole level-0 bucket as a run-list and sorts it by seq —
// since the bucket holds a single timestamp, this reproduces the exact
// (when, seq) order no matter how cascades interleaved the intrusive
// lists.

namespace {

// Circular distance (in buckets) from `pos` to the first occupied bucket
// of a wide 4096-bucket level, scanning its two-level bitmap: the
// position's own 64-bucket group at or after its bit, then later groups
// via the summary word, then the wrapped remainder of the own group.
// Precondition: summary != 0.
inline std::uint64_t wide_scan(const std::array<std::uint64_t, 64>& words,
                               std::uint64_t summary, std::uint64_t pos) {
  const std::size_t group = (pos >> 6) & 63;
  const unsigned sub = static_cast<unsigned>(pos & 63);
  const std::uint64_t own = words[group] >> sub;
  if (own != 0) {
    return static_cast<unsigned>(std::countr_zero(own));
  }
  const std::uint64_t later =
      std::rotr(summary, static_cast<int>(group)) & ~std::uint64_t{1};
  if (later != 0) {
    const unsigned ahead = static_cast<unsigned>(std::countr_zero(later));
    const std::size_t g = (group + ahead) & 63;
    const unsigned bit = static_cast<unsigned>(std::countr_zero(words[g]));
    return (static_cast<std::uint64_t>(ahead) << 6) - sub + bit;
  }
  // Only the position's own group has bits, all below its sub-index: the
  // window wrapped nearly a full revolution.
  const std::uint64_t wrapped = words[group] & ((std::uint64_t{1} << sub) - 1);
  assert(wrapped != 0);
  return 4096 - sub + static_cast<unsigned>(std::countr_zero(wrapped));
}

}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  nodes_.emplace_back();
  data_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Simulator::release_node(std::uint32_t slot) {
  EventNode& node = nodes_[slot];
  ++node.gen;  // invalidate outstanding handles before the slot is reused
  node.prev = kNil;
  node.next = kNil;
  node.where = kWhereNone;
  free_slots_.push_back(slot);
}

void Simulator::release_slot(std::uint32_t slot) {
  EventData& data = data_[slot];
  data.cb.reset();
  data.interval = Time::zero();
  release_node(slot);
}

bool Simulator::event_pending(std::uint32_t slot, std::uint32_t gen) const {
  return slot < nodes_.size() && nodes_[slot].gen == gen;
}

void Simulator::mark_occupied(std::size_t bucket) {
  if (bucket < kLevel0Buckets) {
    const std::size_t group = bucket >> 6;
    l0_words_[group] |= std::uint64_t{1} << (bucket & 63);
    l0_summary_ |= std::uint64_t{1} << group;
    return;
  }
  if (bucket < kUpperBase) {
    const std::size_t index = bucket - kLevel0Buckets;
    const std::size_t group = index >> 6;
    l1_words_[group] |= std::uint64_t{1} << (index & 63);
    l1_summary_ |= std::uint64_t{1} << group;
    return;
  }
  const std::size_t upper = bucket - kUpperBase;
  upper_occupied_[upper / kBuckets + 2] |= std::uint64_t{1}
                                          << (upper % kBuckets);
}

void Simulator::clear_occupied(std::size_t bucket) {
  if (bucket < kLevel0Buckets) {
    const std::size_t group = bucket >> 6;
    if ((l0_words_[group] &= ~(std::uint64_t{1} << (bucket & 63))) == 0) {
      l0_summary_ &= ~(std::uint64_t{1} << group);
    }
    return;
  }
  if (bucket < kUpperBase) {
    const std::size_t index = bucket - kLevel0Buckets;
    const std::size_t group = index >> 6;
    if ((l1_words_[group] &= ~(std::uint64_t{1} << (index & 63))) == 0) {
      l1_summary_ &= ~(std::uint64_t{1} << group);
    }
    return;
  }
  const std::size_t upper = bucket - kUpperBase;
  upper_occupied_[upper / kBuckets + 2] &=
      ~(std::uint64_t{1} << (upper % kBuckets));
}

void Simulator::link_into_bucket(std::uint32_t slot, std::size_t bucket) {
  EventNode& node = nodes_[slot];
  node.prev = kNil;
  node.next = heads_[bucket];
  if (node.next != kNil) nodes_[node.next].prev = slot;
  heads_[bucket] = slot;
  node.where = static_cast<std::uint16_t>(bucket);
  mark_occupied(bucket);
}

void Simulator::unlink_from_bucket(std::uint32_t slot) {
  EventNode& node = nodes_[slot];
  const std::size_t bucket = node.where;
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    heads_[bucket] = node.next;
  }
  if (node.next != kNil) nodes_[node.next].prev = node.prev;
  if (heads_[bucket] == kNil) clear_occupied(bucket);
  node.prev = kNil;
  node.next = kNil;
  node.where = kWhereNone;
}

void Simulator::insert_event(std::uint32_t slot) {
  EventNode& node = nodes_[slot];
  const std::uint64_t tick = node.when;
  // A same-timestamp event scheduled from inside the bucket currently
  // dispatching joins the live run-list. Its seq is necessarily the
  // largest assigned so far, so appending keeps the list sorted.
  if (dispatching_ && tick == dispatch_tick_) {
    node.where = kWhereRun;
    run_.push_back(RunEntry{node.seq, slot, node.gen});
    return;
  }
  if (tick - cursor_ < kLevel0Buckets) {  // the common, cascade-free case
    link_into_bucket(slot, tick & (kLevel0Buckets - 1));
    return;
  }
  const std::uint64_t b1 = tick >> kLevel0Bits;
  if (b1 - (cursor_ >> kLevel0Bits) < kLevel1Buckets) {
    link_into_bucket(slot, kLevel0Buckets + (b1 & (kLevel1Buckets - 1)));
    // An upper-level resident introduces a cascade boundary at its bucket
    // start; keep the floor a valid lower bound.
    const std::uint64_t start = b1 << kLevel0Bits;
    if (start < boundary_floor_) boundary_floor_ = start;
    return;
  }
  // The lowest upper level whose window covers the tick; the top level
  // covers every tick.
  int level = 2;
  while (level < kLevels - 1 &&
         (tick >> upper_shift(level)) - (cursor_ >> upper_shift(level)) >=
             kBuckets) {
    ++level;
  }
  const int shift = upper_shift(level);
  link_into_bucket(slot, kUpperBase +
                             static_cast<std::size_t>(level - 2) * kBuckets +
                             ((tick >> shift) & (kBuckets - 1)));
  const std::uint64_t start = (tick >> shift) << shift;
  if (start < boundary_floor_) boundary_floor_ = start;
}

void Simulator::cancel_event(std::uint32_t slot, std::uint32_t gen) {
  if (!event_pending(slot, gen)) return;  // fired, cancelled, or reused
  EventNode& node = nodes_[slot];
  if (in_flight_ && in_flight_slot_ == slot && in_flight_gen_ == gen) {
    // The callback cancelled its own (periodic) event: it has no queue
    // presence right now; the dispatch loop reclaims the slot.
    ++node.gen;
    data_[slot].cb.reset();
    data_[slot].interval = Time::zero();
    return;
  }
  --live_;
  if (node.where < kWheelBuckets) {
    // O(1) unlink, slot reclaimed immediately — the rearm-heavy RTO
    // pattern leaves no garbage behind.
    unlink_from_bucket(slot);
    release_slot(slot);
    return;
  }
  // kWhereRun: mid-dispatch cancellation of a not-yet-run same-tick event.
  // The run-list entry's generation check skips it and reclaims the slot.
  assert(node.where == kWhereRun);
  ++node.gen;
  data_[slot].cb.reset();
  data_[slot].interval = Time::zero();
  node.where = kWhereNone;
}

EventHandle Simulator::schedule(Time delay, Callback cb) {
  if (delay < Time::zero()) {
    throw std::invalid_argument("Simulator::schedule: negative delay");
  }
  return schedule_at(now_ + delay, std::move(cb));
}

EventHandle Simulator::schedule_at(Time when, Callback cb) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  const std::uint32_t slot = acquire_slot();
  EventData& data = data_[slot];
  data.cb = std::move(cb);
  data.interval = Time::zero();
  EventNode& node = nodes_[slot];
  node.when = static_cast<std::uint64_t>(when.ns());
  node.seq = next_seq_++;
  ++live_;
  insert_event(slot);
  return EventHandle{this, slot, nodes_[slot].gen};
}

EventHandle Simulator::schedule_periodic(Time initial_delay, Time interval,
                                         Callback cb) {
  if (interval <= Time::zero()) {
    throw std::invalid_argument("Simulator::schedule_periodic: interval <= 0");
  }
  if (initial_delay < Time::zero()) {
    throw std::invalid_argument(
        "Simulator::schedule_periodic: negative initial delay");
  }
  const std::uint32_t slot = acquire_slot();
  EventData& data = data_[slot];
  data.cb = std::move(cb);
  data.interval = interval;
  EventNode& node = nodes_[slot];
  node.when = static_cast<std::uint64_t>((now_ + initial_delay).ns());
  node.seq = next_seq_++;
  ++live_;
  insert_event(slot);
  return EventHandle{this, slot, nodes_[slot].gen};
}

std::uint64_t Simulator::earliest_level0() const {
  if (l0_summary_ == 0) return kInfTick;
  // Level-0 residents all lie within [cursor_, cursor_ + 4096), so the
  // circular distance from the cursor's own bucket recovers the exact
  // timestamp.
  return cursor_ + wide_scan(l0_words_, l0_summary_, cursor_);
}

std::uint64_t Simulator::earliest_cascade_start() const {
  std::uint64_t best = kInfTick;
  if (l1_summary_ != 0) {
    const std::uint64_t bucket_no = cursor_ >> kLevel0Bits;
    const std::uint64_t d = wide_scan(l1_words_, l1_summary_, bucket_no);
    // d == 0 would mean the cursor's own bucket is occupied, which the
    // placement rule and cascade-on-entry forbid for levels >= 1.
    assert(d != 0);
    best = (bucket_no + d) << kLevel0Bits;
  }
  for (int level = 2; level < kLevels; ++level) {
    const std::uint64_t bits = upper_occupied_[static_cast<std::size_t>(level)];
    if (bits == 0) continue;
    const int shift = upper_shift(level);
    const std::uint64_t bucket_no = cursor_ >> shift;
    const unsigned pos = static_cast<unsigned>(bucket_no & (kBuckets - 1));
    const unsigned d = static_cast<unsigned>(
        std::countr_zero(std::rotr(bits, static_cast<int>(pos))));
    assert(d != 0);
    // The occupied bucket holds a tick below 2^63, so its start does too:
    // at the top level bucket_no + d <= 7 and the shift by 60 cannot wrap.
    const std::uint64_t start = (bucket_no + d) << shift;
    assert(start < (std::uint64_t{1} << 63));
    best = std::min(best, start);
  }
  return best;
}

void Simulator::cascade_at(std::uint64_t boundary) {
  // The cursor enters the earliest non-empty upper-level bucket, whose
  // start is `boundary`; every bucket the jump crossed was empty by
  // construction (boundary is the minimum over all levels). Top-down so a
  // top-level redistribution can land events into the lower-level buckets
  // cascaded right after it. The boundary floor is consumed here; seek()
  // recomputes it on its next slow pass.
  cursor_ = boundary;
  boundary_floor_ = 0;
  for (int level = kLevels - 1; level >= 2; --level) {
    const int shift = upper_shift(level);
    const std::size_t index = (boundary >> shift) & (kBuckets - 1);
    if ((upper_occupied_[static_cast<std::size_t>(level)] &
         (std::uint64_t{1} << index)) == 0) {
      continue;
    }
    const std::size_t bucket =
        kUpperBase + static_cast<std::size_t>(level - 2) * kBuckets + index;
    std::uint32_t slot = heads_[bucket];
    heads_[bucket] = kNil;
    upper_occupied_[static_cast<std::size_t>(level)] &=
        ~(std::uint64_t{1} << index);
    std::uint64_t moved = 0;
    while (slot != kNil) {
      const std::uint32_t next = nodes_[slot].next;
      // Re-place relative to the new cursor: D(level) is now 0, so the
      // event lands at a strictly lower level (possibly straight into
      // its level-0 timestamp bucket).
      insert_event(slot);
      ++moved;
      slot = next;
    }
    pend_cascaded_ += moved;
  }
  // Level 1 last: a level-1 bucket spans exactly the level-0 window, so
  // everything here lands straight in its level-0 timestamp bucket.
  const std::size_t index1 = (boundary >> kLevel0Bits) & (kLevel1Buckets - 1);
  if ((l1_words_[index1 >> 6] & (std::uint64_t{1} << (index1 & 63))) != 0) {
    const std::size_t bucket = kLevel0Buckets + index1;
    std::uint32_t slot = heads_[bucket];
    heads_[bucket] = kNil;
    if ((l1_words_[index1 >> 6] &= ~(std::uint64_t{1} << (index1 & 63))) ==
        0) {
      l1_summary_ &= ~(std::uint64_t{1} << (index1 >> 6));
    }
    std::uint64_t moved = 0;
    while (slot != kNil) {
      const std::uint32_t next = nodes_[slot].next;
      insert_event(slot);
      ++moved;
      slot = next;
    }
    pend_cascaded_ += moved;
  }
}

bool Simulator::seek(std::uint64_t limit, bool bounded,
                     std::uint64_t* out_tick) {
  // Advances the cursor — cascading wheel buckets — until the earliest
  // pending event's exact tick is known. Returns true with *out_tick when
  // that tick is <= limit; otherwise parks the cursor at the limit
  // (bounded mode) and returns false. Each iteration moves at least one
  // event down a level, so every event is touched O(kLevels) times total.
  for (;;) {
    const std::uint64_t t0 = earliest_level0();
    if (t0 < boundary_floor_) {
      // Fast path: the floor proves no cascade can precede t0, so the
      // upper levels need no rescan. Parking below the floor is equally
      // safe — every boundary and resident is past the limit.
      if (t0 > limit) {
        if (bounded && cursor_ < limit) cursor_ = limit;
        return false;
      }
      *out_tick = t0;
      return true;
    }
    const std::uint64_t c = earliest_cascade_start();
    boundary_floor_ = c;  // now exact, not just a lower bound
    const std::uint64_t next = std::min(t0, c);
    if (next == kInfTick) return false;  // no pending events at all
    if (next > limit) {
      // Nothing due by the limit. Parking the cursor at the limit is safe:
      // every non-empty bucket boundary and level-0 resident is > limit,
      // so no mapping crosses the cursor.
      if (bounded && cursor_ < limit) cursor_ = limit;
      return false;
    }
    if (c <= t0) {
      // Cascade before dispatch even on ties: the bucket starting at `c`
      // may hold events at exactly that timestamp with smaller seqs than
      // anything already at level 0.
      cascade_at(c);
      continue;
    }
    *out_tick = t0;
    return true;
  }
}

void Simulator::requeue_run_tail(std::size_t from) {
  // stop() or a throwing callback abandoned the rest of the run-list:
  // re-link the survivors into their level-0 bucket so the next run_*
  // call dispatches them (their original seqs keep the order exact).
  for (std::size_t i = from; i < run_.size(); ++i) {
    const RunEntry& entry = run_[i];
    if (nodes_[entry.slot].gen != entry.gen) {
      release_slot(entry.slot);
      continue;
    }
    insert_event(entry.slot);
  }
  run_.clear();
}

std::uint64_t Simulator::dispatch_bucket(std::uint64_t tick) {
  cursor_ = tick;
  now_ = Time::nanoseconds(static_cast<std::int64_t>(tick));

  // Detach the whole bucket as a run-list: one batched pop per timestamp,
  // and the seq sort restores FIFO order among the bucket's single shared
  // timestamp.
  const std::size_t index = tick & (kLevel0Buckets - 1);
  std::uint32_t slot = heads_[index];
  heads_[index] = kNil;
  const std::size_t group = index >> 6;
  if ((l0_words_[group] &= ~(std::uint64_t{1} << (index & 63))) == 0) {
    l0_summary_ &= ~(std::uint64_t{1} << group);
  }
  ++pend_buckets_;
  assert(slot != kNil);
  run_.clear();
  dispatching_ = true;
  dispatch_tick_ = tick;
  std::uint64_t ran = 0;

  if (nodes_[slot].next == kNil) {
    // Single-resident bucket — the overwhelmingly common case — executes
    // inline, skipping the run-list round-trip. No generation check
    // either: a wheel-resident entry cannot have been cancelled between
    // seek and here (cancellation unlinks eagerly, and no user code runs
    // in between). Same-tick events scheduled from inside the callback
    // still append to run_ and are drained by the loop below.
    EventNode& node = nodes_[slot];
    node.where = kWhereNone;  // prev/next are already kNil (lone head)
    const std::uint32_t gen = node.gen;
    --live_;
    Callback cb = std::move(data_[slot].cb);
    in_flight_ = true;
    in_flight_slot_ = slot;
    in_flight_gen_ = gen;
    try {
      cb();
    } catch (...) {
      in_flight_ = false;
      dispatching_ = false;
      release_slot(slot);
      requeue_run_tail(0);
      throw;
    }
    in_flight_ = false;
    ++executed_;
    ++ran;
    EventNode& after = nodes_[slot];  // the callback may have grown the slab
    if (after.gen == gen && data_[slot].interval > Time::zero()) {
      data_[slot].cb = std::move(cb);
      after.when =
          tick + static_cast<std::uint64_t>(data_[slot].interval.ns());
      after.seq = next_seq_++;
      ++live_;
      insert_event(slot);
    } else {
      release_node(slot);
    }
  } else {
    while (slot != kNil) {
      EventNode& node = nodes_[slot];
      const std::uint32_t next = node.next;
      node.prev = kNil;
      node.next = kNil;
      node.where = kWhereRun;
      run_.push_back(RunEntry{node.seq, slot, node.gen});
      slot = next;
    }
    std::sort(run_.begin(), run_.end(), [](const RunEntry& a,
                                           const RunEntry& b) {
      return a.seq < b.seq;
    });
  }

  std::size_t i = 0;
  for (; i < run_.size(); ++i) {
    if (stopped_) break;
    const RunEntry entry = run_[i];
    if (nodes_[entry.slot].gen != entry.gen) {
      // Cancelled after detachment (or while waiting in this run-list).
      release_slot(entry.slot);
      continue;
    }
    --live_;
    nodes_[entry.slot].where = kWhereNone;
    // Move the callback out before invoking: the callback may schedule
    // new events and grow/reallocate the slab, and a periodic callback
    // may cancel its own series.
    Callback cb = std::move(data_[entry.slot].cb);
    in_flight_ = true;
    in_flight_slot_ = entry.slot;
    in_flight_gen_ = entry.gen;
    try {
      cb();
    } catch (...) {
      in_flight_ = false;
      dispatching_ = false;
      release_slot(entry.slot);
      requeue_run_tail(i + 1);
      throw;
    }
    in_flight_ = false;
    ++executed_;
    ++ran;

    // Re-read through the vectors: the callback may have grown the slab.
    EventNode& node = nodes_[entry.slot];
    if (node.gen == entry.gen && data_[entry.slot].interval > Time::zero()) {
      // Periodic and not cancelled: the slot (and handle) stay live.
      data_[entry.slot].cb = std::move(cb);
      node.when =
          tick + static_cast<std::uint64_t>(data_[entry.slot].interval.ns());
      node.seq = next_seq_++;
      ++live_;
      insert_event(entry.slot);
    } else {
      // One-shot completion, or the callback cancelled its own series.
      // The moved-out callback destructs here; only the node needs
      // recycling.
      release_node(entry.slot);
    }
  }
  dispatching_ = false;
  if (i < run_.size()) {
    requeue_run_tail(i);  // stopped mid-bucket
  } else {
    run_.clear();
  }
  return ran;
}

void Simulator::drop_pending() {
  heads_.fill(kNil);
  l0_summary_ = 0;
  l0_words_.fill(0);
  l1_summary_ = 0;
  l1_words_.fill(0);
  upper_occupied_.fill(0);
  run_.clear();
  live_ = 0;
  boundary_floor_ = 0;
  // Rebuild the free list from scratch: every slot is released exactly
  // once, and bumping the generation of already-free slots is harmless
  // (their handles are invalid either way).
  free_slots_.clear();
  free_slots_.reserve(nodes_.size());
  for (std::uint32_t slot = 0; slot < nodes_.size(); ++slot) {
    EventNode& node = nodes_[slot];
    ++node.gen;
    node.prev = kNil;
    node.next = kNil;
    node.where = kWhereNone;
    data_[slot].cb.reset();
    data_[slot].interval = Time::zero();
    free_slots_.push_back(slot);
  }
  // Destroying the callbacks released their SegmentRefs; nothing else in
  // this simulation holds pooled segments (connections only hold them
  // transiently inside events), so the thread-local pool gauge must read
  // zero — any residue is a segment about to escape across a thread.
  assert(perf::local().segment_pool_live == 0);
}

void Simulator::flush_perf_counters(std::uint64_t dispatched) {
  perf::Counters& perf = perf::local();
  perf.events_dispatched += dispatched;
  perf.events_cascaded += pend_cascaded_;
  perf.timer_buckets_dispatched += pend_buckets_;
  pend_cascaded_ = 0;
  pend_buckets_ = 0;
}

std::uint64_t Simulator::run_until(Time deadline) {
  stopped_ = false;
  std::uint64_t ran = 0;
  if (deadline >= now_) {
    const std::uint64_t limit = static_cast<std::uint64_t>(deadline.ns());
    std::uint64_t tick = 0;
    while (!stopped_ && seek(limit, /*bounded=*/true, &tick)) {
      ran += dispatch_bucket(tick);
    }
  }
  // Advance the clock to the deadline so consecutive run_until calls observe
  // contiguous time even when the queue idles.
  if (now_ < deadline) now_ = deadline;
  flush_perf_counters(ran);
  return ran;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t ran = 0;
  std::uint64_t tick = 0;
  while (!stopped_ && seek(kInfTick, /*bounded=*/false, &tick)) {
    ran += dispatch_bucket(tick);
  }
  flush_perf_counters(ran);
  return ran;
}

}  // namespace riptide::sim
