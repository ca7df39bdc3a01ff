#include "tcp/rtt_estimator.h"

#include <algorithm>
#include <cstdlib>

namespace riptide::tcp {

namespace {

constexpr sim::Time kInitialRto = sim::Time::seconds(1);
constexpr sim::Time kMinRto = sim::Time::milliseconds(200);
constexpr sim::Time kMaxRto = sim::Time::seconds(120);

}  // namespace

void RttEstimator::add_sample(sim::Time rtt) {
  if (!has_sample_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    has_sample_ = true;
  } else {
    // RFC 6298: alpha = 1/8, beta = 1/4, in integer nanoseconds.
    const sim::Time err = sim::Time::nanoseconds(
        std::abs((rtt - srtt_).ns()));
    rttvar_ = (rttvar_ * 3 + err) / 4;
    srtt_ = (srtt_ * 7 + rtt) / 8;
  }
  backoff_ = 0;  // Karn: fresh sample ends backoff
}

sim::Time RttEstimator::rto() const {
  sim::Time base = has_sample_ ? srtt_ + 4 * rttvar_ : kInitialRto;
  base = std::clamp(base, kMinRto, kMaxRto);
  for (std::uint32_t i = 0; i < backoff_ && base < kMaxRto; ++i) {
    base = std::min(base * 2, kMaxRto);
  }
  return base;
}

void RttEstimator::on_timeout() { ++backoff_; }

}  // namespace riptide::tcp
