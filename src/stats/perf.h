#pragma once

#include <cstdint>
#include <string>

namespace riptide::perf {

// Hot-path performance counters: allocator traffic on the segment path,
// simulator dispatch volume, and link queueing totals. The layer exists so
// perf PRs can *prove* their wins — every bench surfaces a counter delta in
// its JSON output, and tools/bench_diff.py turns two such files into a
// percent-delta table.
//
// Counters are monotone event counts except the `segment_pool_*` gauges,
// which report the pool's current/extreme occupancy. None of this feeds
// back into simulation behavior: counter reads and writes must never
// change event order, RNG draws, or metrics (the golden-determinism test
// pins that down).
struct Counters {
  // -- segment memory --
  std::uint64_t segments_allocated = 0;   // segments handed out (pool or heap)
  std::uint64_t segments_recycled = 0;    // segments returned to a free list
  std::uint64_t segment_heap_allocs = 0;  // operator-new hits on the segment
                                          // path (per-segment pre-pool; one
                                          // per slab refill with the pool)

  // -- segment pool gauges (absolute values, not deltas) --
  std::uint64_t segment_pool_live = 0;        // checked out right now
  std::uint64_t segment_pool_high_water = 0;  // max simultaneously live
  std::uint64_t segment_pool_free = 0;        // recycled, awaiting reuse

  // -- dispatch --
  std::uint64_t events_dispatched = 0;  // simulator callbacks executed
  std::uint64_t packets_queued = 0;     // packets admitted to link queues
  std::uint64_t bytes_queued = 0;       // bytes admitted to link queues

  // -- timer-wheel scheduler (sim/simulator.h) --
  // These replace the retired compaction gauge: wheel cancellation unlinks
  // eagerly, so there is nothing left to compact. Both are functions of
  // the event schedule alone (never of wall time or thread count), so
  // they are safe to include in byte-identical multi-thread bench output.
  std::uint64_t events_cascaded = 0;        // events redistributed to a lower
                                            // wheel level as the cursor turned
  std::uint64_t timer_buckets_dispatched = 0;  // level-0 buckets detached and
                                               // run as batched run-lists

  // -- hybrid fidelity (src/flow) --
  std::uint64_t flow_level_flows = 0;  // cross-traffic flows simulated at
                                       // flow level (no packet events)

  // Counts subtract `before`; gauges keep this (the "after") value — a
  // high-water mark is not meaningfully differenced.
  Counters delta_since(const Counters& before) const;

  // Folds another run's delta into this one for sweep-level summaries:
  // counts add, gauges take the maximum (summed high-water marks mean
  // nothing).
  void accumulate(const Counters& other);
};

// This thread's counters. Thread-local by design: a simulation (and every
// segment it allocates) is confined to one thread, including experiments
// fanned out through runner::ParallelRunner, so per-run deltas taken around
// thread-confined work are exact without atomics on the hot path.
Counters& local();

// One JSON object, fixed key order, e.g. {"segments_allocated":12,...}.
std::string to_json(const Counters& c);

// JSON with only the simulation-determined counts — what multi-threaded
// benches may emit per run. Excluded: `segment_heap_allocs` and the pool
// gauges, which depend on how warm the worker's thread-local SegmentPool
// already is and therefore on run-to-worker assignment; including them
// would break the "--threads N output is byte-identical" contract every
// bench honors. bench_micro (single-threaded by construction) reports the
// full set.
std::string to_run_json(const Counters& c);

}  // namespace riptide::perf
