#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "sim/time.h"
#include "tcp/config.h"

namespace riptide::tcp {

// Everything a congestion controller may want to know about one ACK.
struct AckEvent {
  sim::Time now;
  std::uint64_t bytes_acked = 0;          // newly cumulatively acked bytes
  std::uint64_t bytes_in_flight = 0;      // before this ACK was processed
  std::optional<sim::Time> rtt;           // valid (non-retransmitted) sample
};

// A regime-internal transition the connection's trace layer wants to name
// (tcp-cwnd cause tags): HyStart ended slow start, or BBR entered its
// probe-RTT episode. Set by on_ack, consumed (and cleared) by
// take_signal; at most one per ACK, the freshest wins.
enum class CcSignal : std::uint8_t {
  kNone,
  kHystartExit,
  kBbrProbeRtt,
};

// Congestion-controller interface. The controller owns cwnd and ssthresh in
// bytes; the connection owns loss *detection* (dupACK counting, RTO) and
// notifies the controller of recovery transitions. Fast-recovery window
// inflation (the +1 MSS per dupACK of RFC 6582) is handled by the
// connection, since it is part of NewReno's retransmission strategy rather
// than of long-term window evolution.
class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  // Cumulative ACK of new data outside fast recovery.
  virtual void on_ack(const AckEvent& ev) = 0;

  // Entering fast recovery (3rd dupACK). `bytes_in_flight` is FlightSize at
  // the time loss was detected.
  virtual void on_enter_recovery(sim::Time now, std::uint64_t bytes_in_flight) = 0;

  // Recovery completed (all data outstanding at entry has been acked).
  virtual void on_exit_recovery(sim::Time now) = 0;

  // Retransmission timeout: collapse to loss window.
  virtual void on_timeout(sim::Time now, std::uint64_t bytes_in_flight) = 0;

  // RFC 2861 restart after idle: cwnd back to the (route) initial window.
  virtual void on_restart_after_idle() = 0;

  virtual std::uint64_t cwnd_bytes() const = 0;
  virtual std::uint64_t ssthresh_bytes() const = 0;
  virtual bool in_slow_start() const { return cwnd_bytes() < ssthresh_bytes(); }
  virtual const char* name() const = 0;

  // Drains the regime transition recorded by the last on_ack, if any. The
  // connection polls this only when a trace sink is installed, so
  // controllers must overwrite (not accumulate) the pending signal each
  // on_ack — an undrained stale signal must never survive into the next
  // ACK's report.
  virtual CcSignal take_signal() { return CcSignal::kNone; }

  // The controller's own pacing-rate opinion in bytes/sec; 0 means "no
  // opinion" and the connection falls back to the window-derived rate
  // 2 * cwnd / srtt. BBR-lite supplies gain * estimated
  // bottleneck bandwidth here, which is the whole point of a rate model.
  virtual double pacing_rate_bytes_per_sec() const { return 0.0; }
};

// Creates the controller selected by `config.congestion_control`.
// `initial_cwnd_bytes` is the (possibly route-overridden) IW — this is the
// single knob Riptide turns.
std::unique_ptr<CongestionControl> make_congestion_control(
    const TcpConfig& config, std::uint64_t initial_cwnd_bytes);

}  // namespace riptide::tcp
