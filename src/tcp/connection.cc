#include "tcp/connection.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "tcp/segment_pool.h"
#include "trace/sink.h"

namespace riptide::tcp {

const char* to_string(TcpState state) {
  switch (state) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN-SENT";
    case TcpState::kSynReceived: return "SYN-RECEIVED";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN-WAIT-1";
    case TcpState::kFinWait2: return "FIN-WAIT-2";
    case TcpState::kCloseWait: return "CLOSE-WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST-ACK";
    case TcpState::kTimeWait: return "TIME-WAIT";
  }
  return "?";
}

namespace {

// The stack's fixed constants, at stock Linux values. The receive buffer
// is advertised once the window has opened; window-based controllers pace
// at kPacingGain * cwnd / srtt.
constexpr std::uint64_t kReceiveBufferBytes = 16u * 1024 * 1024;
constexpr sim::Time kDelayedAckTimeout = sim::Time::milliseconds(40);
constexpr std::uint32_t kDuplicateAckThreshold = 3;
constexpr std::uint32_t kMaxDataRetries = 15;
constexpr double kPacingGain = 2.0;

}  // namespace

TcpConnection::TcpConnection(sim::Simulator& sim, TcpConfig config,
                             FourTuple tuple, SegmentSender sender,
                             void* sender_ctx, Callbacks callbacks)
    : sim_(sim),
      config_(config),
      tuple_(tuple),
      sender_(sender),
      sender_ctx_(sender_ctx),
      callbacks_(std::move(callbacks)),
      cc_(make_congestion_control(config_, config_.initial_cwnd_bytes())) {
  if (config_.sack) sacked_ = std::make_unique<SackScoreboard>();
}

TcpConnection::~TcpConnection() {
  cancel_rto();
  delack_timer_.cancel();
  time_wait_timer_.cancel();
  pacing_timer_.cancel();
}

trace::ConnKey TcpConnection::trace_key() const {
  return trace::ConnKey{tuple_.local_addr.value(), tuple_.remote_addr.value(),
                        tuple_.local_port, tuple_.remote_port};
}

void TcpConnection::set_state(TcpState next) {
  if (auto* sink = trace::active(); sink != nullptr && next != state_) {
    trace::TraceEvent ev;
    ev.at_ns = sim_.now().ns();
    ev.kind = trace::EventKind::kTcpState;
    ev.tcp_state = {trace_key(), static_cast<std::uint8_t>(state_),
                    static_cast<std::uint8_t>(next)};
    sink->emit(ev);
  }
  state_ = next;
}

void TcpConnection::trace_cwnd(trace::CwndCause cause) {
  auto* sink = trace::active();
  if (sink == nullptr) return;
  trace::TraceEvent ev;
  ev.at_ns = sim_.now().ns();
  ev.kind = trace::EventKind::kTcpCwnd;
  ev.tcp_cwnd = {trace_key(), cause, cc_->cwnd_bytes(), cc_->ssthresh_bytes(),
                 kMss};
  sink->emit(ev);
}

std::uint64_t TcpConnection::bytes_acked() const {
  if (snd_una_ <= 1) return 0;  // only the SYN (or nothing) acked so far
  std::uint64_t acked = snd_una_ - 1;
  if (fin_sent_ && snd_una_ > data_end_seq()) --acked;  // exclude FIN unit
  return acked;
}

std::uint64_t TcpConnection::bytes_received() const {
  if (tracker_.rcv_nxt() == 0) return 0;
  std::uint64_t received = tracker_.rcv_nxt() - 1;  // exclude peer SYN
  if (peer_fin_seq_ && tracker_.rcv_nxt() > *peer_fin_seq_) --received;
  return received;
}

std::optional<sim::Time> TcpConnection::srtt() const {
  if (!rtt_.has_sample()) return std::nullopt;
  return rtt_.srtt();
}

// ---------------------------------------------------------------- lifecycle

void TcpConnection::connect() {
  if (state_ != TcpState::kClosed) {
    throw std::logic_error("TcpConnection::connect: not closed");
  }
  set_state(TcpState::kSynSent);
  trace_cwnd(trace::CwndCause::kInitcwndSeeded);
  auto syn = make_segment();
  syn->syn = true;
  syn->seq = 0;
  syn->ack_flag = false;
  syn->ack = 0;
  snd_nxt_ = 1;
  probe_seq_end_ = 1;  // handshake RTT seeds the estimator
  probe_sent_at_ = sim_.now();
  emit(std::move(syn));
  arm_rto();
}

void TcpConnection::accept(const Segment& syn) {
  if (state_ != TcpState::kClosed || !syn.syn) {
    throw std::logic_error("TcpConnection::accept: bad state or segment");
  }
  ++stats_.segments_received;
  set_state(TcpState::kSynReceived);
  trace_cwnd(trace::CwndCause::kInitcwndSeeded);
  tracker_ = ReceiveTracker(1);  // peer ISS 0, SYN consumed
  peer_rwnd_ = syn.window_bytes;
  auto synack = make_segment();
  synack->syn = true;
  synack->seq = 0;
  snd_nxt_ = 1;
  probe_seq_end_ = 1;
  probe_sent_at_ = sim_.now();
  emit(std::move(synack));
  arm_rto();
}

void TcpConnection::send(std::uint64_t bytes) {
  if (fin_pending_ || fin_sent_) {
    throw std::logic_error("TcpConnection::send after close()");
  }
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) {
    throw std::logic_error("TcpConnection::send on closed connection");
  }
  app_bytes_queued_ += bytes;
  try_send();
}

void TcpConnection::close() {
  if (fin_pending_ || fin_sent_ || state_ == TcpState::kClosed) return;
  fin_pending_ = true;
  try_send();
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  send_rst();
  teardown(true);
}

void TcpConnection::enter_established() {
  set_state(TcpState::kEstablished);
  last_activity_ = sim_.now();
  if (callbacks_.on_established) callbacks_.on_established();
}

void TcpConnection::enter_time_wait() {
  set_state(TcpState::kTimeWait);
  cancel_rto();
  delack_timer_.cancel();
  time_wait_timer_.cancel();
  time_wait_timer_ =
      sim_.schedule(kTimeWait, [this] { teardown(false); });
}

void TcpConnection::teardown(bool reset) {
  if (state_ == TcpState::kClosed) return;
  set_state(TcpState::kClosed);
  cancel_rto();
  delack_timer_.cancel();
  time_wait_timer_.cancel();
  pacing_timer_.cancel();
  if (callbacks_.on_closed) callbacks_.on_closed(reset);
  if (teardown_hook_ != nullptr) teardown_hook_(sender_ctx_, tuple_);
}

// ------------------------------------------------------------ segment I/O

SegmentRef TcpConnection::make_segment() const {
  SegmentRef seg = SegmentPool::local().allocate();
  seg->src_port = tuple_.local_port;
  seg->dst_port = tuple_.remote_port;
  seg->seq = snd_nxt_;
  seg->ack = tracker_.rcv_nxt();
  seg->ack_flag = true;
  seg->window_bytes = advertised_window();
  if (config_.sack && tracker_.has_out_of_order()) {
    tracker_.fill_intervals(seg->sack_blocks, SackBlocks::kInlineCapacity);
  }
  return seg;
}

// ------------------------------------------------------ SACK scoreboard

void TcpConnection::merge_sack_blocks(const Segment& seg) {
  if (!config_.sack) return;
  SackScoreboard& sacked = *sacked_;
  for (auto [start, end] : seg.sack_blocks) {
    start = std::max(start, snd_una_);
    if (end <= start) continue;
    auto it = sacked.lower_bound(start);
    if (it != sacked.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        it = sacked.erase(prev);
      }
    }
    while (it != sacked.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = sacked.erase(it);
    }
    sacked.emplace(start, end);
  }
}

void TcpConnection::purge_sacked_below(std::uint64_t seq) {
  if (!config_.sack) return;
  SackScoreboard& sacked = *sacked_;
  while (!sacked.empty()) {
    const auto it = sacked.begin();
    if (it->second <= seq) {
      sacked.erase(it);
      continue;
    }
    if (it->first < seq) {
      const auto end = it->second;
      sacked.erase(it);
      sacked.emplace(seq, end);
    }
    break;
  }
}

bool TcpConnection::is_sacked_at(std::uint64_t seq) const {
  const auto it = sacked_->upper_bound(seq);
  if (it == sacked_->begin()) return false;
  return std::prev(it)->second > seq;
}

std::uint64_t TcpConnection::next_hole(std::uint64_t from) const {
  const auto it = sacked_->upper_bound(from);
  if (it == sacked_->begin()) return from;
  const auto prev = std::prev(it);
  return prev->second > from ? prev->second : from;
}

void TcpConnection::emit(SegmentRef seg) {
  ++stats_.segments_sent;
  sender_(sender_ctx_, tuple_, std::move(seg));
}

void TcpConnection::send_ack_now() {
  unacked_segments_ = 0;
  delack_timer_.cancel();
  emit(make_segment());
}

void TcpConnection::send_rst() {
  auto rst = make_segment();
  rst->rst = true;
  emit(std::move(rst));
}

std::uint64_t TcpConnection::advertised_window() const {
  return window_opened_ ? kReceiveBufferBytes : config_.initial_rwnd_bytes();
}

// Delayed ACKs stay on the seed's eager cancel + reschedule discipline
// deliberately. A lazy deadline-field variant (rearm = two stores, early
// fire re-sleeps) was measured ~9% faster on the bulk bench but is NOT
// behavior-identical: the re-slept event's queue sequence number is
// assigned at re-sleep time instead of schedule time, and a delack
// deadline is always `data arrival + constant`, which lands exactly on
// the packet-arrival grid — so delack-vs-arrival timestamp ties are
// common, and flipping their dispatch order changes which cumulative ACK
// goes out (caught by the golden-determinism suite and a stress seed).
// The constraint is scheduler-independent: the timer wheel, like the old
// heap, assigns the FIFO tie-break sequence at schedule time, so the
// same re-sleep scheme would reorder the same ties.
// The RTO timer below CAN be lazy because its deadline derives from
// measured RTT sums that don't re-align with the arrival grid.
void TcpConnection::schedule_delayed_ack() {
  if (delack_timer_.valid()) return;
  delack_timer_ = sim_.schedule(kDelayedAckTimeout, [this] {
    delack_timer_ = sim::EventHandle{};
    if (unacked_segments_ > 0) send_ack_now();
  });
}

// --------------------------------------------------------------- sender

std::uint64_t TcpConnection::send_limit_bytes() const {
  return std::min<std::uint64_t>(cc_->cwnd_bytes() + recovery_inflation_,
                                 peer_rwnd_);
}

void TcpConnection::maybe_restart_after_idle() {
  if (!config_.slow_start_after_idle) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;
  if (bytes_in_flight() > 0) return;
  if (sim_.now() - last_activity_ > rtt_.rto()) {
    const std::uint64_t cwnd_before = cc_->cwnd_bytes();
    cc_->on_restart_after_idle();
    if (cc_->cwnd_bytes() != cwnd_before) {
      trace_cwnd(trace::CwndCause::kIdleRestart);
    }
  }
}

bool TcpConnection::pacing_blocked() {
  if (!config_.pacing || !rtt_.has_sample()) return false;
  if (!pacer_.blocked(sim_.now())) return false;
  if (!pacing_timer_.valid()) {
    pacing_timer_ = sim_.schedule_at(pacer_.release_at(), [this] {
      pacing_timer_ = sim::EventHandle{};
      // The release tag makes pacing stalls visible in a cwnd timeline:
      // sends resumed here because the pacer said so, not because an ACK
      // opened the window.
      trace_cwnd(trace::CwndCause::kPaced);
      try_send();
    });
  }
  return true;
}

void TcpConnection::note_paced_send(std::uint32_t bytes) {
  if (!config_.pacing || !rtt_.has_sample()) return;
  // A rate-model controller (BBR-lite) supplies its own pacing rate;
  // window-based controllers fall back to gain * cwnd / srtt, i.e. the
  // window spread over 1/gain of an RTT.
  double rate_bytes_per_sec = cc_->pacing_rate_bytes_per_sec();
  if (rate_bytes_per_sec <= 0.0) {
    rate_bytes_per_sec =
        kPacingGain * static_cast<double>(cc_->cwnd_bytes()) /
        std::max(rtt_.srtt().to_seconds(), 1e-6);
  }
  pacer_.on_send(sim_.now(), bytes, rate_bytes_per_sec);
}

void TcpConnection::try_send() {
  const bool may_send_data =
      state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait;
  if (!may_send_data) return;

  maybe_restart_after_idle();

  bool sent_any = false;
  while (snd_nxt_ < data_end_seq() &&
         bytes_in_flight() < send_limit_bytes()) {
    if (config_.sack && is_sacked_at(snd_nxt_)) {
      // Post-RTO rewind ran into a range the peer already holds: skip it.
      snd_nxt_ = std::min(next_hole(snd_nxt_), data_end_seq());
      continue;
    }
    if (pacing_blocked()) break;
    auto len_bytes =
        std::min<std::uint64_t>(kMss, data_end_seq() - snd_nxt_);
    if (config_.sack) {
      const auto it = sacked_->lower_bound(snd_nxt_ + 1);
      if (it != sacked_->end() && it->first < snd_nxt_ + len_bytes) {
        len_bytes = it->first - snd_nxt_;
      }
    }
    const auto len = static_cast<std::uint32_t>(len_bytes);
    const bool attach_fin =
        fin_pending_ && snd_nxt_ + len == data_end_seq();
    send_data_segment(snd_nxt_, len, attach_fin);
    note_paced_send(len);
    snd_nxt_ += len + (attach_fin ? 1 : 0);
    sent_any = true;
    if (attach_fin) break;
  }

  // Pure FIN when there is no data left to carry it on.
  if (fin_pending_ && !fin_sent_ && snd_nxt_ == data_end_seq()) {
    send_data_segment(snd_nxt_, 0, true);
    snd_nxt_ += 1;
    sent_any = true;
  }

  if (sent_any) {
    last_activity_ = sim_.now();
    arm_rto();
  }
}

void TcpConnection::send_data_segment(std::uint64_t seq, std::uint32_t len,
                                      bool fin) {
  auto seg = make_segment();
  seg->seq = seq;
  seg->payload_bytes = len;
  if (fin) {
    seg->fin = true;
    fin_sent_ = true;
    if (state_ == TcpState::kEstablished) set_state(TcpState::kFinWait1);
    else if (state_ == TcpState::kCloseWait) set_state(TcpState::kLastAck);
  }
  unacked_segments_ = 0;  // this segment carries our current ACK
  delack_timer_.cancel();
  if (!probe_seq_end_ && seq == snd_nxt_) {
    probe_seq_end_ = seq + len + (fin ? 1 : 0);
    probe_sent_at_ = sim_.now();
  }
  emit(std::move(seg));
}

void TcpConnection::retransmit_front() {
  ++stats_.retransmissions;
  probe_seq_end_.reset();  // Karn's rule

  if (snd_una_ == 0) {  // SYN (or SYN-ACK) lost
    auto syn = make_segment();
    syn->syn = true;
    syn->seq = 0;
    if (state_ == TcpState::kSynSent) {
      syn->ack_flag = false;
      syn->ack = 0;
    }
    emit(std::move(syn));
    return;
  }

  // With SACK, retransmit the first scoreboard *hole* rather than blindly
  // resending from snd_una (which the peer may already hold).
  const std::uint64_t seq = config_.sack ? next_hole(snd_una_) : snd_una_;

  auto seg = make_segment();
  seg->seq = seq;
  if (seq < data_end_seq()) {
    auto len =
        std::min<std::uint64_t>(kMss, data_end_seq() - seq);
    if (config_.sack) {
      // Do not run into the next peer-held block.
      const auto it = sacked_->lower_bound(seq + 1);
      if (it != sacked_->end() && it->first < seq + len) {
        len = it->first - seq;
      }
    }
    seg->payload_bytes = static_cast<std::uint32_t>(len);
    seg->fin = fin_sent_ && seq + len == data_end_seq();
  } else if (fin_sent_) {
    seg->fin = true;
  } else {
    return;  // nothing outstanding to retransmit
  }
  emit(std::move(seg));
}

void TcpConnection::arm_rto() {
  // Lazy rearm: per-ACK this is two field writes. The pending event only
  // needs replacing when it would fire *after* the new deadline (the RTO
  // estimate shrank), which is rare; an early-firing event re-sleeps
  // itself in on_rto_timer. The scheme predates the O(1)-cancel timer
  // wheel (under the old heap it also kept dead entries out of the
  // queue); it stays because two stores still beat even a cheap
  // cancel + reschedule round-trip on the per-ACK path.
  rto_armed_ = true;
  rto_deadline_ = sim_.now() + rtt_.rto();
  if (!rto_timer_.valid() || rto_scheduled_for_ > rto_deadline_) {
    rto_timer_.cancel();
    rto_scheduled_for_ = rto_deadline_;
    rto_timer_ = sim_.schedule_at(rto_deadline_, [this] { on_rto_timer(); });
  }
}

void TcpConnection::cancel_rto() {
  rto_armed_ = false;
  rto_timer_.cancel();
}

void TcpConnection::on_rto_timer() {
  rto_timer_ = sim::EventHandle{};  // this event has fired
  if (!rto_armed_) return;
  if (sim_.now() < rto_deadline_) {
    // The deadline moved while we slept; sleep again until it.
    rto_scheduled_for_ = rto_deadline_;
    rto_timer_ = sim_.schedule_at(rto_deadline_, [this] { on_rto_timer(); });
    return;
  }
  rto_armed_ = false;
  on_rto();
}

void TcpConnection::on_rto() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) return;
  if (snd_nxt_ == snd_una_) return;  // stale timer, nothing outstanding

  ++stats_.timeouts;
  ++retries_;
  if (auto* sink = trace::active()) {
    trace::TraceEvent ev;
    ev.at_ns = sim_.now().ns();
    ev.kind = trace::EventKind::kTcpRto;
    ev.tcp_rto = {trace_key(), rtt_.rto().ns(), retries_};
    sink->emit(ev);
  }
  rtt_.on_timeout();

  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    if (retries_ > kMaxSynRetries) {
      teardown(true);
      return;
    }
    retransmit_front();
    arm_rto();
    return;
  }

  if (retries_ > kMaxDataRetries) {
    teardown(true);
    return;
  }

  cc_->on_timeout(sim_.now(), bytes_in_flight());
  trace_cwnd(trace::CwndCause::kRto);
  in_recovery_ = false;
  recovery_inflation_ = 0;
  dupacks_ = 0;

  // Go-back-N: rewind snd_nxt and let try_send stream from the loss point
  // under the collapsed window. (Linux uses SACK-based retransmission; the
  // simplification only affects multi-loss tail behaviour.)
  snd_nxt_ = snd_una_;
  if (fin_sent_ && snd_nxt_ <= data_end_seq()) {
    fin_sent_ = false;  // FIN will be re-attached when we reach it again
    if (state_ == TcpState::kFinWait1) set_state(TcpState::kEstablished);
    else if (state_ == TcpState::kLastAck) set_state(TcpState::kCloseWait);
  }
  ++stats_.retransmissions;
  try_send();
  arm_rto();
}

// --------------------------------------------------------------- receiver

void TcpConnection::on_segment(const Segment& seg) {
  if (state_ == TcpState::kClosed) return;
  ++stats_.segments_received;

  if (seg.rst) {
    teardown(true);
    return;
  }

  switch (state_) {
    case TcpState::kSynSent: {
      if (seg.syn && seg.ack_flag && seg.ack >= 1) {
        tracker_ = ReceiveTracker(1);
        snd_una_ = 1;
        peer_rwnd_ = seg.window_bytes;
        retries_ = 0;
        cancel_rto();
        if (probe_seq_end_ && snd_una_ >= *probe_seq_end_) {
          rtt_.add_sample(sim_.now() - probe_sent_at_);
          probe_seq_end_.reset();
        }
        enter_established();
        send_ack_now();
        try_send();
      }
      return;
    }
    case TcpState::kSynReceived: {
      if (seg.syn && !seg.ack_flag) {
        // Client retransmitted its SYN: our SYN-ACK was lost.
        retransmit_front();
        return;
      }
      if (seg.ack_flag && seg.ack >= 1) {
        snd_una_ = std::max<std::uint64_t>(snd_una_, 1);
        peer_rwnd_ = seg.window_bytes;
        retries_ = 0;
        cancel_rto();
        if (probe_seq_end_ && snd_una_ >= *probe_seq_end_) {
          rtt_.add_sample(sim_.now() - probe_sent_at_);
          probe_seq_end_.reset();
        }
        enter_established();
        // Fall through to normal processing for piggybacked payload/FIN.
        if (seg.payload_bytes > 0) process_payload(seg);
        if (seg.fin) process_fin(seg);
        try_send();
      }
      return;
    }
    default:
      break;
  }

  if (seg.syn && seg.ack_flag) {
    // Peer retransmitted SYN-ACK: our handshake ACK was lost.
    send_ack_now();
    return;
  }

  if (seg.ack_flag) process_ack(seg);
  if (seg.payload_bytes > 0) process_payload(seg);
  if (seg.fin) process_fin(seg);
}

void TcpConnection::process_ack(const Segment& seg) {
  if (seg.ack < snd_una_) return;  // stale
  merge_sack_blocks(seg);

  if (seg.ack == snd_una_) {
    const bool is_dupack = snd_nxt_ > snd_una_ && seg.payload_bytes == 0 &&
                           !seg.syn && !seg.fin;
    if (!is_dupack) {
      peer_rwnd_ = seg.window_bytes;
      return;
    }
    ++stats_.duplicate_acks_received;
    ++dupacks_;
    peer_rwnd_ = seg.window_bytes;
    if (!in_recovery_ && dupacks_ == kDuplicateAckThreshold) {
      in_recovery_ = true;
      recover_seq_ = snd_nxt_;
      cc_->on_enter_recovery(sim_.now(), bytes_in_flight());
      trace_cwnd(trace::CwndCause::kFastRetransmit);
      recovery_inflation_ =
          std::uint64_t{kDuplicateAckThreshold} * kMss;
      ++stats_.fast_retransmits;
      retransmit_front();
      arm_rto();
    } else if (in_recovery_) {
      recovery_inflation_ += kMss;
      try_send();
    }
    return;
  }

  // New data acknowledged.
  const std::uint64_t in_flight_before = bytes_in_flight();
  const std::uint64_t acked = seg.ack - snd_una_;
  snd_una_ = seg.ack;
  purge_sacked_below(snd_una_);
  peer_rwnd_ = seg.window_bytes;
  dupacks_ = 0;
  retries_ = 0;

  std::optional<sim::Time> sample;
  if (probe_seq_end_ && snd_una_ >= *probe_seq_end_) {
    sample = sim_.now() - probe_sent_at_;
    rtt_.add_sample(*sample);
    probe_seq_end_.reset();
  }

  if (in_recovery_) {
    if (seg.ack >= recover_seq_) {
      in_recovery_ = false;
      recovery_inflation_ = 0;
      cc_->on_exit_recovery(sim_.now());
      trace_cwnd(trace::CwndCause::kRecoveryExit);
    } else {
      // NewReno partial ACK: retransmit the next hole, deflate, inflate by
      // one MSS (RFC 6582 §3.2).
      retransmit_front();
      recovery_inflation_ -= std::min(recovery_inflation_, acked);
      recovery_inflation_ += kMss;
      arm_rto();
    }
  } else {
    // Whether this ACK grows the window in slow start or congestion
    // avoidance is decided by the controller's state *before* the ack is
    // applied; snapshot it only when a sink is installed.
    const bool traced = trace::active() != nullptr;
    const std::uint64_t cwnd_before = traced ? cc_->cwnd_bytes() : 0;
    const bool slow_start = traced && cc_->in_slow_start();
    cc_->on_ack(AckEvent{sim_.now(), acked, in_flight_before, sample});
    if (traced) {
      // A regime-internal transition (HyStart exit, BBR probe-RTT entry)
      // outranks the generic growth tag — and must be reported even when
      // cwnd itself did not move (HyStart only writes ssthresh).
      switch (cc_->take_signal()) {
        case CcSignal::kHystartExit:
          trace_cwnd(trace::CwndCause::kHystartExit);
          break;
        case CcSignal::kBbrProbeRtt:
          trace_cwnd(trace::CwndCause::kBbrProbeRtt);
          break;
        case CcSignal::kNone:
          if (cc_->cwnd_bytes() != cwnd_before) {
            trace_cwnd(slow_start ? trace::CwndCause::kSlowStart
                                  : trace::CwndCause::kCongestionAvoidance);
          }
          break;
      }
    }
  }

  // Our FIN acknowledged?
  if (fin_sent_ && snd_una_ >= data_end_seq() + 1) {
    switch (state_) {
      case TcpState::kFinWait1:
        if (peer_fin_seq_ && tracker_.rcv_nxt() > *peer_fin_seq_) {
          enter_time_wait();
        } else {
          set_state(TcpState::kFinWait2);
        }
        break;
      case TcpState::kClosing:
        enter_time_wait();
        break;
      case TcpState::kLastAck:
        teardown(false);
        return;
      default:
        break;
    }
  }

  if (bytes_in_flight() > 0) {
    arm_rto();
  } else {
    cancel_rto();
  }
  try_send();
}

void TcpConnection::process_payload(const Segment& seg) {
  window_opened_ = true;

  std::uint64_t delivered =
      tracker_.on_segment(seg.seq, seg.seq + seg.payload_bytes);

  // The advance may have run through a previously buffered FIN.
  bool fin_consumed_now = false;
  if (peer_fin_seq_ && delivered > 0 && tracker_.rcv_nxt() > *peer_fin_seq_) {
    --delivered;  // the FIN unit is not application data
    fin_consumed_now = true;
  }

  if (delivered > 0 && callbacks_.on_data) callbacks_.on_data(delivered);

  const bool out_of_order = tracker_.has_out_of_order() || delivered == 0;
  if (out_of_order) {
    send_ack_now();  // immediate (duplicate) ACK to drive fast retransmit
  } else {
    ++unacked_segments_;
    if (unacked_segments_ >= config_.delayed_ack_segments) {
      send_ack_now();
    } else {
      schedule_delayed_ack();
    }
  }

  if (fin_consumed_now) process_fin_transition();
}

void TcpConnection::process_fin(const Segment& seg) {
  const std::uint64_t fin_seq = seg.seq + seg.payload_bytes;
  peer_fin_seq_ = fin_seq;
  tracker_.on_segment(fin_seq, fin_seq + 1);
  send_ack_now();
  if (tracker_.rcv_nxt() > fin_seq) process_fin_transition();
}

void TcpConnection::process_fin_transition() {
  switch (state_) {
    case TcpState::kEstablished:
      set_state(TcpState::kCloseWait);
      if (callbacks_.on_peer_closed) callbacks_.on_peer_closed();
      break;
    case TcpState::kFinWait1:
      // Our FIN not yet acked (otherwise we'd be in FIN-WAIT-2).
      set_state(TcpState::kClosing);
      if (callbacks_.on_peer_closed) callbacks_.on_peer_closed();
      break;
    case TcpState::kFinWait2:
      if (callbacks_.on_peer_closed) callbacks_.on_peer_closed();
      enter_time_wait();
      break;
    default:
      break;
  }
}

}  // namespace riptide::tcp
