#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "tcp/congestion_control.h"
#include "tcp/hystart.h"

namespace riptide::tcp {

// CUBIC congestion control per RFC 8312 (the Linux default the paper's CDN
// runs, §III-B). Slow start below ssthresh is standard (with RFC 3465 byte
// counting); above ssthresh the window tracks the cubic curve
//   W_cubic(t) = C * (t - K)^3 + W_max
// with fast convergence and the TCP-friendly (Reno-tracking) region.
//
// Optional HyStart (tcp/hystart.h, delay increase): when the detector
// fires during slow start, ssthresh is set to the current window, ending
// slow start before the queue overflows.
// Disabled by default (the study's flows are short and IW-dominated).
class Cubic : public CongestionControl {
 public:
  Cubic(std::uint32_t mss, std::uint64_t initial_cwnd_bytes,
        bool hystart = false);

  void on_ack(const AckEvent& ev) override;
  void on_enter_recovery(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_exit_recovery(sim::Time now) override;
  void on_timeout(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_restart_after_idle() override;

  std::uint64_t cwnd_bytes() const override { return cwnd_; }
  std::uint64_t ssthresh_bytes() const override { return ssthresh_; }
  const char* name() const override { return "cubic"; }
  CcSignal take_signal() override {
    const CcSignal s = signal_;
    signal_ = CcSignal::kNone;
    return s;
  }

  bool hystart_enabled() const { return hystart_ != nullptr; }

 private:
  void multiplicative_decrease(std::uint64_t bytes_in_flight);
  double w_cubic_segments(double t_seconds) const;

  static constexpr double kC = 0.4;     // cubic scaling constant
  static constexpr double kBeta = 0.7;  // multiplicative decrease factor

  std::uint32_t mss_;
  std::uint64_t initial_cwnd_;
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_ = std::numeric_limits<std::uint64_t>::max();

  double w_max_segments_ = 0.0;          // window at last decrease
  double k_seconds_ = 0.0;               // time to regain w_max
  std::optional<sim::Time> epoch_start_; // start of current cubic epoch
  double w_est_segments_ = 0.0;          // TCP-friendly estimate
  sim::Time last_rtt_ = sim::Time::milliseconds(100);  // fallback until sampled
  bool in_recovery_ = false;

  // Allocated only when HyStart is on (it is off by default).
  std::unique_ptr<Hystart> hystart_;
  CcSignal signal_ = CcSignal::kNone;
};

}  // namespace riptide::tcp
