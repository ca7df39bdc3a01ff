#include "stats/perf.h"

#include <algorithm>
#include <cstdio>

namespace riptide::perf {

Counters& local() {
  thread_local Counters counters;
  return counters;
}

Counters Counters::delta_since(const Counters& before) const {
  Counters d;
  d.segments_allocated = segments_allocated - before.segments_allocated;
  d.segments_recycled = segments_recycled - before.segments_recycled;
  d.segment_heap_allocs = segment_heap_allocs - before.segment_heap_allocs;
  d.sack_heap_spills = sack_heap_spills - before.sack_heap_spills;
  d.segment_pool_live = segment_pool_live;
  d.segment_pool_high_water = segment_pool_high_water;
  d.segment_pool_free = segment_pool_free;
  d.events_dispatched = events_dispatched - before.events_dispatched;
  d.events_cascaded = events_cascaded - before.events_cascaded;
  d.overflow_promotions = overflow_promotions - before.overflow_promotions;
  d.timer_buckets_dispatched =
      timer_buckets_dispatched - before.timer_buckets_dispatched;
  d.packets_queued = packets_queued - before.packets_queued;
  d.bytes_queued = bytes_queued - before.bytes_queued;
  d.flow_level_flows = flow_level_flows - before.flow_level_flows;
  return d;
}

void Counters::accumulate(const Counters& other) {
  segments_allocated += other.segments_allocated;
  segments_recycled += other.segments_recycled;
  segment_heap_allocs += other.segment_heap_allocs;
  sack_heap_spills += other.sack_heap_spills;
  segment_pool_live = std::max(segment_pool_live, other.segment_pool_live);
  segment_pool_high_water =
      std::max(segment_pool_high_water, other.segment_pool_high_water);
  segment_pool_free = std::max(segment_pool_free, other.segment_pool_free);
  events_dispatched += other.events_dispatched;
  events_cascaded += other.events_cascaded;
  overflow_promotions += other.overflow_promotions;
  timer_buckets_dispatched += other.timer_buckets_dispatched;
  packets_queued += other.packets_queued;
  bytes_queued += other.bytes_queued;
  flow_level_flows += other.flow_level_flows;
}

std::string to_json(const Counters& c) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"segments_allocated\":%llu,\"segments_recycled\":%llu,"
      "\"segment_heap_allocs\":%llu,\"sack_heap_spills\":%llu,"
      "\"segment_pool_live\":%llu,\"segment_pool_high_water\":%llu,"
      "\"segment_pool_free\":%llu,\"events_dispatched\":%llu,"
      "\"events_cascaded\":%llu,\"overflow_promotions\":%llu,"
      "\"timer_buckets_dispatched\":%llu,"
      "\"packets_queued\":%llu,\"bytes_queued\":%llu,"
      "\"flow_level_flows\":%llu}",
      static_cast<unsigned long long>(c.segments_allocated),
      static_cast<unsigned long long>(c.segments_recycled),
      static_cast<unsigned long long>(c.segment_heap_allocs),
      static_cast<unsigned long long>(c.sack_heap_spills),
      static_cast<unsigned long long>(c.segment_pool_live),
      static_cast<unsigned long long>(c.segment_pool_high_water),
      static_cast<unsigned long long>(c.segment_pool_free),
      static_cast<unsigned long long>(c.events_dispatched),
      static_cast<unsigned long long>(c.events_cascaded),
      static_cast<unsigned long long>(c.overflow_promotions),
      static_cast<unsigned long long>(c.timer_buckets_dispatched),
      static_cast<unsigned long long>(c.packets_queued),
      static_cast<unsigned long long>(c.bytes_queued),
      static_cast<unsigned long long>(c.flow_level_flows));
  return buf;
}

std::string to_run_json(const Counters& c) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"segments_allocated\":%llu,\"segments_recycled\":%llu,"
      "\"sack_heap_spills\":%llu,\"events_dispatched\":%llu,"
      "\"events_cascaded\":%llu,\"overflow_promotions\":%llu,"
      "\"timer_buckets_dispatched\":%llu,"
      "\"packets_queued\":%llu,\"bytes_queued\":%llu,"
      "\"flow_level_flows\":%llu}",
      static_cast<unsigned long long>(c.segments_allocated),
      static_cast<unsigned long long>(c.segments_recycled),
      static_cast<unsigned long long>(c.sack_heap_spills),
      static_cast<unsigned long long>(c.events_dispatched),
      static_cast<unsigned long long>(c.events_cascaded),
      static_cast<unsigned long long>(c.overflow_promotions),
      static_cast<unsigned long long>(c.timer_buckets_dispatched),
      static_cast<unsigned long long>(c.packets_queued),
      static_cast<unsigned long long>(c.bytes_queued),
      static_cast<unsigned long long>(c.flow_level_flows));
  return buf;
}

}  // namespace riptide::perf
