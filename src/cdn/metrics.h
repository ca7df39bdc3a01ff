#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/time.h"
#include "stats/cdf.h"

namespace riptide::cdn {

// Destination-distance buckets used by the paper's Figures 12-14.
enum class RttBucket {
  kClose,    // < 50 ms
  kMedium,   // 50-100 ms
  kFar,      // 100-150 ms
  kVeryFar,  // > 150 ms
};

RttBucket bucket_for(double rtt_ms);
const char* to_string(RttBucket bucket);

// One completed probe/object transfer.
struct FlowRecord {
  int src_pop = -1;  // the requester's PoP
  int dst_pop = -1;  // the PoP that served the object
  std::uint64_t object_bytes = 0;
  sim::Time started;
  sim::Time duration;
  bool fresh = false;  // a new connection was opened for this transfer
  double base_rtt_ms = 0.0;  // uncongested path RTT (for bucketing)
};

// One `ss` cwnd sample (paper §IV-B1: per-minute sampling of established
// connections).
struct CwndSample {
  int pop = -1;  // PoP of the host whose connection was sampled
  std::uint32_t cwnd_segments = 0;
  sim::Time at;
};

// Accumulates flow completions and window samples across an experiment and
// slices them into the CDFs the paper's figures plot.
//
// Both logs grow linearly with simulated time and are only ever appended
// to, so they live in deques: growth adds fixed-size chunks instead of
// doubling one buffer (whose unused tail can be half the log), never
// copies a record, and keeps every earlier record at its address.
// Readers iterate, index or take the size.
class MetricsCollector {
 public:
  void record_flow(const FlowRecord& record) { flows_.push_back(record); }
  void record_cwnd(const CwndSample& sample) { cwnd_samples_.push_back(sample); }

  const std::deque<FlowRecord>& flows() const { return flows_; }
  const std::deque<CwndSample>& cwnd_samples() const { return cwnd_samples_; }

  // Completion-time CDF (milliseconds) over flows matching `predicate`.
  stats::Cdf completion_cdf(
      const std::function<bool(const FlowRecord&)>& predicate) const;

  // Window CDF (segments); `pop` < 0 means all PoPs.
  stats::Cdf cwnd_cdf(int pop = -1) const;

 private:
  std::deque<FlowRecord> flows_;
  std::deque<CwndSample> cwnd_samples_;
};

}  // namespace riptide::cdn
