#include "tcp/bbr_lite.h"

#include <algorithm>

namespace riptide::tcp {

namespace {

// The published BBR v1 gains; windows generous for WAN RTTs.
constexpr double kStartupGain = 2.885;    // 2/ln2: doubles delivery rate per RTT
constexpr double kDrainGain = 0.3465;     // 1/startup gain: drains the queue
constexpr double kCwndGain = 2.0;         // cwnd = gain * estimated BDP
constexpr double kProbeGainUp = 1.25;     // probe-bw cycle phase 0
constexpr double kProbeGainDown = 0.75;   // phase 1 (drain what phase 0 queued)
constexpr std::uint32_t kProbeCycleLen = 8;   // phases 2..7 cruise at gain 1.0
constexpr std::size_t kBwWindowRounds = 10;   // max-filter depth, in rounds
constexpr std::uint32_t kFullBwRounds = 3;    // startup exit: plateau length
constexpr double kFullBwThresh = 1.25;        // startup exit: growth floor
constexpr sim::Time kMinRttWindow = sim::Time::seconds(10);
constexpr sim::Time kProbeRttDuration = sim::Time::milliseconds(200);
constexpr std::uint64_t kMinCwndSegments = 4;  // floor, and the probe-RTT window

}  // namespace

BbrLite::BbrLite(std::uint32_t mss, std::uint64_t initial_cwnd_bytes)
    : mss_(mss), initial_cwnd_(initial_cwnd_bytes), cwnd_(initial_cwnd_bytes) {}

double BbrLite::bottleneck_bw_bytes_per_sec() const {
  double best = 0.0;
  for (double s : bw_samples_) best = std::max(best, s);
  return best;
}

double BbrLite::current_gain() const {
  switch (mode_) {
    case Mode::kStartup: return kStartupGain;
    case Mode::kDrain: return kDrainGain;
    case Mode::kProbeRtt: return 1.0;
    case Mode::kProbeBw:
      if (cycle_phase_ == 0) return kProbeGainUp;
      if (cycle_phase_ == 1) return kProbeGainDown;
      return 1.0;
  }
  return 1.0;
}

double BbrLite::pacing_rate_bytes_per_sec() const {
  const double bw = bottleneck_bw_bytes_per_sec();
  return bw > 0.0 ? current_gain() * bw : 0.0;
}

std::uint64_t BbrLite::bdp_bytes() const {
  const double bw = bottleneck_bw_bytes_per_sec();
  if (bw <= 0.0 || !min_rtt_) return 0;
  return static_cast<std::uint64_t>(bw * min_rtt_->to_seconds());
}

void BbrLite::finish_round(sim::Time now) {
  const double elapsed = (now - *round_start_).to_seconds();
  if (elapsed > 0.0) {
    const double sample =
        static_cast<double>(delivered_ - round_base_) / elapsed;
    bw_samples_.push_back(sample);
    while (bw_samples_.size() > kBwWindowRounds) {
      bw_samples_.pop_front();
    }
  }
  round_start_ = now;
  round_base_ = delivered_;
  ++round_count_;

  switch (mode_) {
    case Mode::kStartup: {
      // Exit once the filtered bandwidth stops growing by 25% for three
      // consecutive rounds: the pipe is full.
      const double bw = bottleneck_bw_bytes_per_sec();
      if (bw >= full_bw_ * kFullBwThresh) {
        full_bw_ = bw;
        full_bw_count_ = 0;
      } else if (++full_bw_count_ >= kFullBwRounds) {
        mode_ = Mode::kDrain;
      }
      break;
    }
    case Mode::kDrain:
      // One inverse-gain round drains the startup queue; then cruise.
      mode_ = Mode::kProbeBw;
      cycle_phase_ = 2;  // skip straight to cruising; probe on next cycle
      break;
    case Mode::kProbeBw:
      cycle_phase_ = (cycle_phase_ + 1) % kProbeCycleLen;
      break;
    case Mode::kProbeRtt:
      break;  // timed, not round-counted
  }
}

void BbrLite::update_min_rtt(const AckEvent& ev) {
  if (ev.rtt) {
    last_rtt_ = *ev.rtt;
    if (!min_rtt_ || *ev.rtt <= *min_rtt_) {
      min_rtt_ = *ev.rtt;
      min_rtt_stamp_ = ev.now;
    }
  }

  if (mode_ == Mode::kProbeRtt) {
    if (probe_rtt_done_ && ev.now >= *probe_rtt_done_) {
      // Episode over: the queue drained, so the freshest samples are the
      // truth — restart the window from now.
      min_rtt_stamp_ = ev.now;
      probe_rtt_done_.reset();
      mode_ = probe_rtt_return_;
    }
    return;
  }
  if (min_rtt_ && ev.now - min_rtt_stamp_ > kMinRttWindow) {
    probe_rtt_return_ = mode_ == Mode::kStartup ? Mode::kStartup
                                                : Mode::kProbeBw;
    mode_ = Mode::kProbeRtt;
    probe_rtt_done_ = ev.now + kProbeRttDuration;
    signal_ = CcSignal::kBbrProbeRtt;
  }
}

void BbrLite::update_target_cwnd(const AckEvent& ev) {
  const std::uint64_t floor = kMinCwndSegments * mss_;
  if (mode_ == Mode::kProbeRtt) {
    cwnd_ = floor;
    return;
  }
  const std::uint64_t bdp = bdp_bytes();
  std::uint64_t target =
      bdp > 0 ? static_cast<std::uint64_t>(kCwndGain *
                                           static_cast<double>(bdp))
              : cwnd_;
  if (mode_ == Mode::kStartup) {
    // Keep exponential window growth while the model warms up, from
    // whatever (possibly route-jump-started) initial window we were
    // constructed with.
    target = std::max(target, cwnd_ + ev.bytes_acked);
  }
  cwnd_ = std::max(target, floor);
}

void BbrLite::on_ack(const AckEvent& ev) {
  signal_ = CcSignal::kNone;
  delivered_ += ev.bytes_acked;
  update_min_rtt(ev);

  if (!round_start_) {
    round_start_ = ev.now;
    round_base_ = delivered_ - ev.bytes_acked;
  } else if (ev.now - *round_start_ >= last_rtt_) {
    finish_round(ev.now);
  }

  update_target_cwnd(ev);
}

void BbrLite::on_enter_recovery(sim::Time /*now*/,
                                std::uint64_t /*bytes_in_flight*/) {
  // Loss is not a model input: packet loss with a standing delivery-rate
  // estimate means a shallow buffer, not reduced capacity.
}

void BbrLite::on_exit_recovery(sim::Time /*now*/) {}

void BbrLite::on_timeout(sim::Time /*now*/, std::uint64_t /*bytes_in_flight*/) {
  // An RTO means the model lost the plot; collapse to the floor and let
  // the ACK stream rebuild it (the bandwidth filter keeps its history —
  // a spurious RTO should not forget a good estimate).
  cwnd_ = kMinCwndSegments * mss_;
}

void BbrLite::on_restart_after_idle() {
  cwnd_ = std::min(cwnd_, initial_cwnd_);
  // Rate samples from before the idle period no longer describe the path.
  round_start_.reset();
}

}  // namespace riptide::tcp
