#pragma once

#include <optional>

#include "sim/time.h"

namespace riptide::tcp {

struct AckEvent;

// HyStart slow-start exit detection (Ha & Rhee), extracted from Cubic so
// any loss-based controller can compose it. Delay increase: per-round
// minimum RTTs are tracked, rounds being delimited by the smoothed RTT;
// when a round's minimum exceeds the previous round's by
// eta = prev_min / 8, clamped to [4, 16] ms, the queue has started
// building. This is the variant the pre-extraction Cubic shipped,
// bit-identically.
//
// The caller owns the consequence (typically ssthresh = cwnd): on_ack
// only reports the verdict, so the detector stays controller-agnostic.
class Hystart {
 public:
  // Feeds one ACK; `last_rtt` is the controller's current RTT estimate
  // (round delimiter). Returns true when slow start should end now.
  // Keep calling only while in slow start; detection state is cheap but
  // meaningless afterwards.
  bool on_ack(const AckEvent& ev, sim::Time last_rtt);

 private:
  bool delay_increase_detected() const;

  std::optional<sim::Time> round_start_;
  std::optional<sim::Time> round_min_rtt_;
  std::optional<sim::Time> prev_round_min_rtt_;
};

}  // namespace riptide::tcp
