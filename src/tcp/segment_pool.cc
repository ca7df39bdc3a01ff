#include "tcp/segment_pool.h"

#include "stats/perf.h"

namespace riptide::tcp {

SegmentPool& SegmentPool::local() {
  thread_local SegmentPool pool;
  return pool;
}

void SegmentPool::refill() {
  // One heap allocation per kSlabSegments checkouts at peak; after the
  // high-water mark is reached, zero.
  ++perf::local().segment_heap_allocs;
  slabs_.push_back(std::make_unique<Segment[]>(kSlabSegments));
  Segment* slab = slabs_.back().get();
  free_.reserve(free_.size() + kSlabSegments);
  // Reverse order so the free list pops slab[0] first (cache-friendly and
  // deterministic across builds).
  for (std::size_t i = kSlabSegments; i-- > 0;) {
    slab[i].pool_ = this;
    free_.push_back(&slab[i]);
  }
}

SegmentRef SegmentPool::allocate() {
  if (free_.empty()) refill();
  Segment* seg = free_.back();
  free_.pop_back();

  // Reset to the default-constructed state; the generation stamp (bumped
  // by recycle) and pool backlink survive.
  seg->src_port = 0;
  seg->dst_port = 0;
  seg->seq = 0;
  seg->ack = 0;
  seg->syn = false;
  seg->ack_flag = false;
  seg->fin = false;
  seg->rst = false;
  seg->payload_bytes = 0;
  seg->window_bytes = 0;
  seg->sack_blocks.clear();

  ++live_;
  if (live_ > high_water_) high_water_ = live_;

  auto& perf = perf::local();
  ++perf.segments_allocated;
  perf.segment_pool_live = live_;
  perf.segment_pool_high_water = high_water_;
  perf.segment_pool_free = free_.size();
  return SegmentRef(seg);
}

void SegmentPool::recycle(Segment* seg) {
  ++seg->pool_gen_;  // invalidate outstanding debug handles
  free_.push_back(seg);
  --live_;

  auto& perf = perf::local();
  ++perf.segments_recycled;
  perf.segment_pool_live = live_;
  perf.segment_pool_free = free_.size();
}

void Segment::retire() const {
  // retire() is conceptually destruction, so shedding const to hand the
  // slot back mirrors what `delete this` (legal on a const pointer) does.
  if (pool_ != nullptr) {
    pool_->recycle(const_cast<Segment*>(this));
  } else {
    delete this;
  }
}

}  // namespace riptide::tcp
