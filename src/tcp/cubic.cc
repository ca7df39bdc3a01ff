#include "tcp/cubic.h"

#include <algorithm>
#include <cmath>

namespace riptide::tcp {

Cubic::Cubic(std::uint32_t mss, std::uint64_t initial_cwnd_bytes, bool hystart)
    : mss_(mss),
      initial_cwnd_(initial_cwnd_bytes),
      cwnd_(initial_cwnd_bytes) {
  if (hystart) hystart_.emplace();
}

double Cubic::w_cubic_segments(double t_seconds) const {
  const double dt = t_seconds - k_seconds_;
  return kC * dt * dt * dt + w_max_segments_;
}

void Cubic::on_ack(const AckEvent& ev) {
  signal_ = CcSignal::kNone;
  if (in_recovery_) return;
  if (ev.rtt) last_rtt_ = *ev.rtt;

  if (cwnd_ < ssthresh_) {
    // Standard slow start with byte counting (L=2), as in Linux CUBIC.
    if (hystart_ && hystart_->on_ack(ev, last_rtt_)) {
      ssthresh_ = cwnd_;  // leave slow start; cubic takes over from here
      signal_ = CcSignal::kHystartExit;
    }
    cwnd_ += std::min<std::uint64_t>(ev.bytes_acked, 2ull * mss_);
    return;
  }

  const double w = static_cast<double>(cwnd_) / mss_;
  if (!epoch_start_) {
    epoch_start_ = ev.now;
    if (w_max_segments_ < w) {
      // No decrease recorded above the current window: start a fresh
      // plateau here.
      w_max_segments_ = w;
      k_seconds_ = 0.0;
    } else {
      k_seconds_ = std::cbrt((w_max_segments_ - w) / kC);
    }
    w_est_segments_ = w;
  }

  const double t = (ev.now - *epoch_start_).to_seconds();
  const double rtt_s = std::max(last_rtt_.to_seconds(), 1e-6);

  // Target is the cubic curve one RTT ahead (RFC 8312 §4.1).
  double target = w_cubic_segments(t + rtt_s);
  // Linux caps the per-RTT growth at 1.5x to bound burstiness.
  target = std::min(target, 1.5 * w);

  // TCP-friendly region (RFC 8312 §4.2).
  const double acked_segments = static_cast<double>(ev.bytes_acked) / mss_;
  w_est_segments_ += 3.0 * (1.0 - kBeta) / (1.0 + kBeta) * acked_segments / w;
  target = std::max(target, w_est_segments_);

  if (target > w) {
    // Spread the climb to `target` over roughly one RTT worth of ACKs.
    const double inc_segments = (target - w) / w * acked_segments;
    cwnd_ += static_cast<std::uint64_t>(inc_segments * mss_);
  }
  // Below-target: hold (cubic plateau around w_max).
}

void Cubic::multiplicative_decrease(std::uint64_t bytes_in_flight) {
  const double w = static_cast<double>(cwnd_) / mss_;
  // Fast convergence (RFC 8312 §4.6): release bandwidth when the new
  // saturation point is below the previous one.
  if (w < w_max_segments_) {
    w_max_segments_ = w * (2.0 - kBeta) / 2.0;
  } else {
    w_max_segments_ = w;
  }
  epoch_start_.reset();
  const std::uint64_t flight_based =
      static_cast<std::uint64_t>(static_cast<double>(bytes_in_flight) * kBeta);
  ssthresh_ = std::max<std::uint64_t>(flight_based, 2ull * mss_);
}

void Cubic::on_enter_recovery(sim::Time /*now*/,
                              std::uint64_t bytes_in_flight) {
  multiplicative_decrease(bytes_in_flight);
  cwnd_ = ssthresh_;
  in_recovery_ = true;
}

void Cubic::on_exit_recovery(sim::Time /*now*/) {
  in_recovery_ = false;
  cwnd_ = ssthresh_;
}

void Cubic::on_timeout(sim::Time /*now*/, std::uint64_t bytes_in_flight) {
  multiplicative_decrease(bytes_in_flight);
  cwnd_ = mss_;
  in_recovery_ = false;
}

void Cubic::on_restart_after_idle() {
  cwnd_ = std::min(cwnd_, initial_cwnd_);
  epoch_start_.reset();
}

}  // namespace riptide::tcp
