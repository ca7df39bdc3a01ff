#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tcp/segment.h"

namespace riptide::tcp {

// Slab-backed recycling allocator for Segments. One `operator new` buys a
// slab of kSlabSegments; individual checkouts and returns are free-list
// pushes/pops with no heap traffic at all. The pool is thread-local
// (`SegmentPool::local()`): a simulation and every segment it emits are
// confined to one thread (ParallelRunner workers included), so there is no
// locking, and per-run perf-counter deltas taken around a run are exact.
//
// Ownership rules:
//   - allocate() returns a SegmentRef holding the only reference; the
//     segment is reset to a default-constructed state (generation aside).
//   - Copies of the handle (and of Packets carrying it) bump the intrusive
//     refcount; when the last one drops, Segment::retire() returns the
//     slot to this pool's free list.
//   - The pool owns the slabs and never shrinks; high-water occupancy is
//     the steady-state footprint (reported via perf counters).
//   - Recycling bumps the slot's generation; in debug builds SegmentRef
//     asserts its pinned generation on every dereference, so stale handles
//     to recycled slots abort instead of aliasing the next checkout.
class SegmentPool {
 public:
  static constexpr std::size_t kSlabSegments = 64;

  SegmentPool() = default;
  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  // This thread's pool. Thread-local storage duration: outlives every
  // stack-scoped Simulator/Host on the thread, so segments in flight at
  // teardown still have a pool to return to.
  static SegmentPool& local();

  SegmentRef allocate();

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return slabs_.size() * kSlabSegments; }

 private:
  friend struct Segment;  // retire() -> recycle()
  void recycle(Segment* seg);
  void refill();

  // Slabs are arrays of Segment; a unique_ptr<Segment[]> per slab keeps
  // addresses stable for the pool's lifetime.
  std::vector<std::unique_ptr<Segment[]>> slabs_;
  std::vector<Segment*> free_;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace riptide::tcp
