#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "tcp/congestion_control.h"
#include "tcp/hystart.h"

namespace riptide::tcp {

// TCP NewReno congestion control (RFC 5681 + RFC 6582 window halving), with
// Appropriate Byte Counting (RFC 3465, L=2) so delayed ACKs still let slow
// start double per RTT, as in Linux. HyStart (tcp/hystart.h) composes onto
// slow start the same way it does for Cubic; historically the hystart flag
// was a Cubic-only silent no-op here.
class NewReno : public CongestionControl {
 public:
  NewReno(std::uint32_t mss, std::uint64_t initial_cwnd_bytes,
          bool hystart = false);

  void on_ack(const AckEvent& ev) override;
  void on_enter_recovery(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_exit_recovery(sim::Time now) override;
  void on_timeout(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_restart_after_idle() override;

  std::uint64_t cwnd_bytes() const override { return cwnd_; }
  std::uint64_t ssthresh_bytes() const override { return ssthresh_; }
  const char* name() const override { return "newreno"; }
  CcSignal take_signal() override {
    const CcSignal s = signal_;
    signal_ = CcSignal::kNone;
    return s;
  }

  bool hystart_enabled() const { return hystart_.has_value(); }

 private:
  std::uint32_t mss_;
  std::uint64_t initial_cwnd_;
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t ca_acc_ = 0;  // bytes acked toward the next +1 MSS in CA
  bool in_recovery_ = false;
  sim::Time last_rtt_ = sim::Time::milliseconds(100);  // HyStart round length
  std::optional<Hystart> hystart_;
  CcSignal signal_ = CcSignal::kNone;
};

}  // namespace riptide::tcp
