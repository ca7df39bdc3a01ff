#include "tcp/reno.h"

#include <algorithm>

namespace riptide::tcp {

NewReno::NewReno(std::uint32_t mss, std::uint64_t initial_cwnd_bytes,
                 bool hystart)
    : mss_(mss), initial_cwnd_(initial_cwnd_bytes), cwnd_(initial_cwnd_bytes) {
  if (hystart) hystart_.emplace();
}

void NewReno::on_ack(const AckEvent& ev) {
  signal_ = CcSignal::kNone;
  if (in_recovery_) return;  // window frozen until recovery exits
  if (ev.rtt) last_rtt_ = *ev.rtt;
  if (cwnd_ < ssthresh_) {
    if (hystart_ && hystart_->on_ack(ev, last_rtt_)) {
      ssthresh_ = cwnd_;  // congestion avoidance takes over from here
      signal_ = CcSignal::kHystartExit;
    }
    // Slow start with ABC (L=2): grow by bytes acked, at most 2 MSS per ACK.
    cwnd_ += std::min<std::uint64_t>(ev.bytes_acked, 2ull * mss_);
  } else {
    // Congestion avoidance: +1 MSS per cwnd of acked bytes.
    ca_acc_ += ev.bytes_acked;
    if (ca_acc_ >= cwnd_) {
      ca_acc_ -= cwnd_;
      cwnd_ += mss_;
    }
  }
}

void NewReno::on_enter_recovery(sim::Time /*now*/,
                                std::uint64_t bytes_in_flight) {
  // RFC 6582: ssthresh = max(FlightSize / 2, 2 * SMSS); cwnd deflates to
  // ssthresh (the per-dupACK inflation lives in the connection).
  ssthresh_ = std::max<std::uint64_t>(bytes_in_flight / 2, 2ull * mss_);
  cwnd_ = ssthresh_;
  ca_acc_ = 0;
  in_recovery_ = true;
}

void NewReno::on_exit_recovery(sim::Time /*now*/) {
  in_recovery_ = false;
  cwnd_ = ssthresh_;
}

void NewReno::on_timeout(sim::Time /*now*/, std::uint64_t bytes_in_flight) {
  ssthresh_ = std::max<std::uint64_t>(bytes_in_flight / 2, 2ull * mss_);
  cwnd_ = mss_;  // RFC 5681 loss window
  ca_acc_ = 0;
  in_recovery_ = false;
}

void NewReno::on_restart_after_idle() {
  cwnd_ = std::min(cwnd_, initial_cwnd_);
  ca_acc_ = 0;
}

}  // namespace riptide::tcp
