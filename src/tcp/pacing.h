#pragma once

#include <cstdint>

#include "sim/time.h"

namespace riptide::tcp {

// Token-bucket pacer in earliest-departure-time form (how Linux fq/EDT
// implements sk_pacing_rate): instead of refilling a token counter on a
// clock, each departure advances a single release timestamp by
// bytes/rate, and a segment may leave once `now` has caught up to the
// release time: release' = max(release, now) + bytes/rate, blocked while
// now < release. This is the strict spacing the pacing ablation measured.
// The connection drives it from the timer wheel — one µs-granularity
// event per deferred segment, which the hierarchical wheel schedules and
// cancels in O(1) with no cascade work at this horizon.
class TokenBucketPacer {
 public:
  TokenBucketPacer() = default;

  // True when the pacer currently defers transmission.
  bool blocked(sim::Time now) const { return now < release_; }

  // When the next segment may depart; schedule the pacing timer here.
  sim::Time release_at() const { return release_; }

  // Accounts one departure of `bytes` at `rate_bytes_per_sec`, advancing
  // the release time.
  void on_send(sim::Time now, std::uint32_t bytes, double rate_bytes_per_sec) {
    const double rate = rate_bytes_per_sec < 1.0 ? 1.0 : rate_bytes_per_sec;
    release_ = (release_ > now ? release_ : now) +
               sim::Time::from_seconds(static_cast<double>(bytes) / rate);
  }

 private:
  sim::Time release_;  // earliest departure time of the next segment
};

}  // namespace riptide::tcp
