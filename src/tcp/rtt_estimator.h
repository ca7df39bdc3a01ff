#pragma once

#include <cstdint>

#include "sim/time.h"

namespace riptide::tcp {

// RTT estimation and retransmission-timeout computation per RFC 6298
// (Jacobson/Karels smoothing, Karn's rule enforced by the caller feeding
// only non-retransmitted samples). The bounds are Linux's: 1 s before the
// first sample, clamped to [200 ms, 120 s].
class RttEstimator {
 public:
  // Feed one valid RTT sample (from a segment that was not retransmitted).
  void add_sample(sim::Time rtt);

  // Current timeout: clamped SRTT + 4 * RTTVAR, doubled `backoff` times.
  sim::Time rto() const;

  // Exponential backoff on timeout; resets once a fresh sample arrives.
  void on_timeout();

  bool has_sample() const { return has_sample_; }
  sim::Time srtt() const { return srtt_; }
  sim::Time rttvar() const { return rttvar_; }
  std::uint32_t backoff_count() const { return backoff_; }

 private:
  sim::Time srtt_;
  sim::Time rttvar_;
  bool has_sample_ = false;
  std::uint32_t backoff_ = 0;
};

}  // namespace riptide::tcp
