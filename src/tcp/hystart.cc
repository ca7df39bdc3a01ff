#include "tcp/hystart.h"

#include <algorithm>

#include "tcp/congestion_control.h"

namespace riptide::tcp {

namespace {

// eta = prev_round_min / kEtaDivisor, clamped to [kMinEta, kMaxEta].
constexpr std::int64_t kEtaDivisor = 8;
constexpr sim::Time kMinEta = sim::Time::milliseconds(4);
constexpr sim::Time kMaxEta = sim::Time::milliseconds(16);

}  // namespace

bool Hystart::delay_increase_detected() const {
  if (!prev_round_min_rtt_ || !round_min_rtt_) return false;
  const auto eta =
      std::clamp(*prev_round_min_rtt_ / kEtaDivisor, kMinEta, kMaxEta);
  return *round_min_rtt_ >= *prev_round_min_rtt_ + eta;
}

bool Hystart::on_ack(const AckEvent& ev, sim::Time last_rtt) {
  if (!ev.rtt) return false;
  if (!round_start_ || ev.now - *round_start_ > last_rtt) {
    // Round boundary: rotate the per-round minimum.
    prev_round_min_rtt_ = round_min_rtt_;
    round_min_rtt_.reset();
    round_start_ = ev.now;
  }
  if (!round_min_rtt_ || *ev.rtt < *round_min_rtt_) round_min_rtt_ = *ev.rtt;
  return delay_increase_detected();
}

}  // namespace riptide::tcp
