#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "sim/simulator.h"
#include "sim/time.h"
#include "tcp/config.h"
#include "tcp/congestion_control.h"
#include "tcp/pacing.h"
#include "tcp/receive_tracker.h"
#include "tcp/rtt_estimator.h"
#include "tcp/segment.h"
#include "tcp/tuple.h"
#include "trace/event.h"

namespace riptide::tcp {

enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

const char* to_string(TcpState state);

// Per-connection counters, exposed through the host's `ss`-style interface.
struct ConnectionStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t duplicate_acks_received = 0;
};

// One TCP endpoint. Implements the RFC 793 state machine (minus simultaneous
// open), NewReno loss recovery on top of a pluggable congestion controller,
// RFC 6298 RTO with Karn's rule, delayed ACKs with byte counting on the
// sender, flow control with a staged receive window (initial window until
// first data, then full buffer — the initrwnd behaviour §III-C builds on),
// and RFC 2861 slow-start-after-idle (what makes reused-but-idle connections
// also benefit from Riptide's route windows).
//
// Loss recovery simplifications vs Linux (documented in DESIGN.md): SACK is
// opt-in via TcpConfig::sack (NewReno partial-ACK retransmission otherwise),
// go-back-N after an RTO. HyStart and pacing are opt-in via TcpConfig
// (tcp/hystart.h, tcp/pacing.h).
class TcpConnection {
 public:
  // Outbound segment dispatch. A bare function pointer plus context word
  // instead of std::function: emit() runs once per segment, and the old
  // type-erased callable cost an indirect call through a heap-allocated
  // capture (this + tuple) per connection. The connection passes its own
  // tuple, so the context is just the owning host.
  using SegmentSender = void (*)(void* ctx, const FourTuple& tuple,
                                 SegmentRef seg);
  // Owner cleanup on reaching CLOSED, called with the sender's context and
  // this connection's tuple: a plain pointer like SegmentSender, so the
  // hook needs no per-connection capture of its own.
  using TeardownHook = void (*)(void* ctx, const FourTuple& tuple);

  // SYN retransmissions before an active open gives up (Linux's
  // tcp_syn_retries), and TIME_WAIT, shortened so simulations recycle port
  // state promptly. The other stack constants live in connection.cc.
  static constexpr std::uint32_t kMaxSynRetries = 6;
  static constexpr sim::Time kTimeWait = sim::Time::seconds(2);

  struct Callbacks {
    std::function<void()> on_established;
    // `bytes` newly delivered in order (may batch previously out-of-order
    // data).
    std::function<void(std::uint64_t bytes)> on_data;
    std::function<void()> on_peer_closed;  // FIN consumed
    // Connection fully terminated; `reset` is true for RST/failure paths.
    std::function<void(bool reset)> on_closed;
  };

  // `config` must already carry the effective initial windows: the host
  // applies any per-route initcwnd/initrwnd before construction. This
  // mirrors Linux, where route metrics are consulted once at connect time.
  TcpConnection(sim::Simulator& sim, TcpConfig config, FourTuple tuple,
                SegmentSender sender, void* sender_ctx, Callbacks callbacks);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Active open (client).
  void connect();

  // Passive open: adopt an incoming SYN (the host's listener calls this).
  void accept(const Segment& syn);

  // Replaces the callback set. Intended for accept paths where the
  // application wires itself up between construction and accept().
  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  // Owner-level teardown hook, invoked after the user's on_closed when the
  // connection reaches CLOSED. Reserved for the owning host's cleanup and
  // deliberately separate from Callbacks so set_callbacks cannot displace
  // it.
  void set_teardown_hook(TeardownHook hook) { teardown_hook_ = hook; }

  // Queues `bytes` of application data for transmission. Legal from
  // kSynSent onward until close() is called.
  void send(std::uint64_t bytes);

  // Graceful close: FIN goes out once all queued data is sent.
  void close();

  // Hard close: RST to the peer, immediate teardown.
  void abort();

  // Entry point for segments demultiplexed to this connection.
  void on_segment(const Segment& seg);

  // -- Introspection (the `ss` surface and tests) --
  TcpState state() const { return state_; }
  bool established() const { return state_ == TcpState::kEstablished; }
  bool closed() const { return state_ == TcpState::kClosed; }
  // True once close() has been called (even while data is still draining);
  // send() is no longer legal.
  bool close_requested() const { return fin_pending_ || fin_sent_; }
  const FourTuple& tuple() const { return tuple_; }
  const TcpConfig& config() const { return config_; }

  std::uint64_t cwnd_bytes() const { return cc_->cwnd_bytes(); }
  std::uint32_t cwnd_segments() const {
    return static_cast<std::uint32_t>(cc_->cwnd_bytes() / kMss);
  }
  std::uint64_t ssthresh_bytes() const { return cc_->ssthresh_bytes(); }
  std::uint64_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }
  // Liveness introspection for invariant checkers: unacked data with no
  // armed retransmit timer would be a silent stall (nothing will ever
  // retry), which is exactly what the chaos stall oracle looks for.
  bool rto_armed() const { return rto_armed_; }
  std::uint64_t bytes_acked() const;
  std::uint64_t bytes_received() const;
  std::optional<sim::Time> srtt() const;
  const ConnectionStats& stats() const { return stats_; }

 private:
  // -- segment construction --
  SegmentRef make_segment() const;
  void emit(SegmentRef seg);
  void send_ack_now();
  void send_rst();

  // -- sender path --
  void try_send();
  void send_data_segment(std::uint64_t seq, std::uint32_t len, bool fin);
  void retransmit_front();
  std::uint64_t data_end_seq() const { return 1 + app_bytes_queued_; }
  std::uint64_t send_limit_bytes() const;
  // True when pacing defers the next segment; arms the pacing timer.
  bool pacing_blocked();
  void note_paced_send(std::uint32_t bytes);
  void arm_rto();
  void cancel_rto();
  void on_rto_timer();
  void on_rto();

  // -- receiver path --
  void process_ack(const Segment& seg);
  void process_payload(const Segment& seg);
  void process_fin(const Segment& seg);
  void process_fin_transition();
  std::uint64_t advertised_window() const;
  void schedule_delayed_ack();
  void maybe_restart_after_idle();

  // -- lifecycle --
  void enter_established();
  void enter_time_wait();
  void teardown(bool reset);

  // -- decision-audit tracing (src/trace) --
  // All state_ writes funnel through set_state so every RFC 793
  // transition is observable; trace_cwnd snapshots the controller after a
  // window-changing entry point, tagged with why it was called. Both are
  // no-ops costing one thread-local load when no sink is installed.
  void set_state(TcpState next);
  void trace_cwnd(trace::CwndCause cause);
  trace::ConnKey trace_key() const;

  sim::Simulator& sim_;
  TcpConfig config_;
  FourTuple tuple_;
  SegmentSender sender_;
  void* sender_ctx_ = nullptr;
  Callbacks callbacks_;
  TeardownHook teardown_hook_ = nullptr;

  TcpState state_ = TcpState::kClosed;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;
  ReceiveTracker tracker_;

  // Sender sequence state (ISS = 0; SYN occupies seq 0, data starts at 1).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t app_bytes_queued_ = 0;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  std::uint64_t peer_rwnd_ = 0;
  std::uint64_t recovery_inflation_ = 0;
  std::uint64_t recover_seq_ = 0;
  bool in_recovery_ = false;
  std::uint32_t dupacks_ = 0;
  std::uint32_t retries_ = 0;

  // SACK scoreboard: disjoint peer-held ranges strictly above snd_una_
  // (start -> end). Allocated only when config_.sack is set (SACK is off
  // by default), and read only under that flag.
  using SackScoreboard = std::map<std::uint64_t, std::uint64_t>;
  std::unique_ptr<SackScoreboard> sacked_;
  void merge_sack_blocks(const Segment& seg);
  void purge_sacked_below(std::uint64_t seq);
  bool is_sacked_at(std::uint64_t seq) const;
  // First sequence >= `from` the peer is not known to hold, and the length
  // of the hole (capped by mss / data end / next sacked block).
  std::uint64_t next_hole(std::uint64_t from) const;

  // RTT probing (Karn's rule: any retransmission invalidates the probe).
  std::optional<std::uint64_t> probe_seq_end_;
  sim::Time probe_sent_at_;

  // Receiver state.
  std::optional<std::uint64_t> peer_fin_seq_;
  bool window_opened_ = false;
  std::uint32_t unacked_segments_ = 0;

  // The RTO timer is *lazy*: rearming on every ACK (the old cancel +
  // reschedule pair per segment) only moves the deadline field; the
  // pending event, when it fires early, puts itself back to sleep until
  // the current deadline. Event-queue traffic drops from one cancel+push
  // per ACK to one dispatch per RTO interval. (The delayed-ACK timer is
  // NOT lazy — see the note at schedule_delayed_ack.)
  sim::EventHandle rto_timer_;
  sim::Time rto_deadline_;       // meaningful while rto_armed_
  sim::Time rto_scheduled_for_;  // fire time of the pending event
  bool rto_armed_ = false;
  sim::EventHandle delack_timer_;
  sim::EventHandle time_wait_timer_;
  sim::EventHandle pacing_timer_;
  TokenBucketPacer pacer_;  // earliest-departure-time schedule (tcp/pacing.h)

  sim::Time last_activity_;  // last time we sent data (for idle restart)
  ConnectionStats stats_;

 public:
  // Scoreboard introspection for tests/diagnostics.
  std::size_t sack_scoreboard_intervals() const {
    return sacked_ ? sacked_->size() : 0;
  }
};

}  // namespace riptide::tcp
