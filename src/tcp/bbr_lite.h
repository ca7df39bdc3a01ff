#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>

#include "tcp/congestion_control.h"

namespace riptide::tcp {

// A model-based controller in the BBR v1 mold (delivery-rate + min-RTT
// probing; see the large-BDP transport survey in PAPERS.md), deliberately
// "lite": it works from the cumulative-ACK stream the AckEvent interface
// already carries instead of per-packet rate samples, so it slots behind
// the existing CongestionControl interface untouched.
//
//   * Bandwidth: delivered bytes are accumulated per round (rounds
//     delimited by the current RTT estimate, as in HyStart); each round's
//     delivered/elapsed is a bandwidth sample, max-filtered over the last
//     10 rounds. Reordering robustness falls out of the
//     cumulative accounting: dupACK storms contribute no on_ack calls,
//     and the eventual cumulative ACK restores the exact byte count, so
//     a reordered round measures the same delivery as an in-order one.
//   * Min RTT: windowed minimum over 10 s; when the estimate goes stale,
//     a 200 ms probe-RTT episode clamps cwnd to the 4-segment floor to
//     drain the queue and re-measure.
//   * State machine: STARTUP (gain 2/ln2 until the bandwidth filter
//     plateaus for 3 rounds) -> DRAIN (one inverse-gain round) ->
//     PROBE_BW (the 8-phase pacing-gain cycle), with PROBE_RTT overriding
//     any state.
//   * cwnd = 2 * estimated BDP, floored at 4 segments;
//     during STARTUP it additionally grows by bytes acked so the initial
//     (possibly route-jump-started) window keeps doubling while the
//     model warms up.
//
// Loss is *not* a model input: on_enter/on_exit_recovery leave the window
// alone (steady-state loss tolerance is BBR's defining property), and
// only an RTO — by then the model is provably wrong — collapses to the
// floor window. The constants are the published BBR v1 values
// (bbr_lite.cc).
class BbrLite : public CongestionControl {
 public:
  BbrLite(std::uint32_t mss, std::uint64_t initial_cwnd_bytes);

  void on_ack(const AckEvent& ev) override;
  void on_enter_recovery(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_exit_recovery(sim::Time now) override;
  void on_timeout(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_restart_after_idle() override;

  std::uint64_t cwnd_bytes() const override { return cwnd_; }
  std::uint64_t ssthresh_bytes() const override {
    return std::numeric_limits<std::uint64_t>::max();  // no loss threshold
  }
  bool in_slow_start() const override { return mode_ == Mode::kStartup; }
  const char* name() const override { return "bbr-lite"; }
  CcSignal take_signal() override {
    const CcSignal s = signal_;
    signal_ = CcSignal::kNone;
    return s;
  }
  double pacing_rate_bytes_per_sec() const override;

  // Model introspection for tests and the cc bench.
  double bottleneck_bw_bytes_per_sec() const;
  std::optional<sim::Time> min_rtt() const { return min_rtt_; }
  bool in_probe_rtt() const { return mode_ == Mode::kProbeRtt; }
  std::uint32_t rounds_elapsed() const { return round_count_; }

 private:
  enum class Mode : std::uint8_t { kStartup, kDrain, kProbeBw, kProbeRtt };

  double current_gain() const;
  std::uint64_t bdp_bytes() const;
  void finish_round(sim::Time now);
  void update_min_rtt(const AckEvent& ev);
  void update_target_cwnd(const AckEvent& ev);

  std::uint32_t mss_;
  std::uint64_t initial_cwnd_;
  std::uint64_t cwnd_;

  Mode mode_ = Mode::kStartup;
  Mode probe_rtt_return_ = Mode::kStartup;  // mode to resume afterwards
  CcSignal signal_ = CcSignal::kNone;

  // Round + delivery accounting.
  std::uint64_t delivered_ = 0;          // total bytes cumulatively acked
  std::uint64_t round_base_ = 0;         // delivered_ at round start
  std::optional<sim::Time> round_start_;
  std::uint32_t round_count_ = 0;
  sim::Time last_rtt_ = sim::Time::milliseconds(100);  // round delimiter

  // Windowed max bandwidth filter (bytes/sec), one entry per round.
  std::deque<double> bw_samples_;

  // Startup plateau detection.
  double full_bw_ = 0.0;
  std::uint32_t full_bw_count_ = 0;

  // Probe-bw gain cycle.
  std::uint32_t cycle_phase_ = 0;

  // Min-RTT filter + probe-RTT episode.
  std::optional<sim::Time> min_rtt_;
  sim::Time min_rtt_stamp_;
  std::optional<sim::Time> probe_rtt_done_;
};

}  // namespace riptide::tcp
