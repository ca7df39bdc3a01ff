#include "cdn/metrics.h"

namespace riptide::cdn {

RttBucket bucket_for(double rtt_ms) {
  if (rtt_ms < 50.0) return RttBucket::kClose;
  if (rtt_ms < 100.0) return RttBucket::kMedium;
  if (rtt_ms < 150.0) return RttBucket::kFar;
  return RttBucket::kVeryFar;
}

const char* to_string(RttBucket bucket) {
  switch (bucket) {
    case RttBucket::kClose: return "<50ms";
    case RttBucket::kMedium: return "50-100ms";
    case RttBucket::kFar: return "100-150ms";
    case RttBucket::kVeryFar: return ">150ms";
  }
  return "?";
}

stats::Cdf MetricsCollector::completion_cdf(
    const std::function<bool(const FlowRecord&)>& predicate) const {
  stats::Cdf cdf;
  for (const auto& flow : flows_) {
    if (predicate(flow)) cdf.add(flow.duration.to_milliseconds());
  }
  return cdf;
}

stats::Cdf MetricsCollector::cwnd_cdf(int pop) const {
  stats::Cdf cdf;
  for (const auto& sample : cwnd_samples_) {
    if (pop < 0 || sample.pop == pop) {
      cdf.add(static_cast<double>(sample.cwnd_segments));
    }
  }
  return cdf;
}

}  // namespace riptide::cdn
