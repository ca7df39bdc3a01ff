#pragma once

#include <cstdint>
#include <string>

namespace riptide::tcp {

enum class CcAlgorithm {
  kNewReno,
  kCubic,    // Linux default, and the paper's deployment (§III-B)
  kBbrLite,  // model-based: delivery rate + min-RTT probing, no loss
             // reaction in steady state (ROADMAP item 2)
};

// Per-route congestion-control regime selector, the CC analog of the
// initcwnd route metric: kUnset means "use the host default", everything
// else rewrites the effective TcpConfig at connect time (apply_route_cc).
// Lives here rather than in host/ because it names TCP regimes; the
// routing table stores it, the policy grammar spells it (cc=reno etc.).
enum class RouteCc : std::uint8_t {
  kUnset = 0,
  kReno,       // NewReno, plain
  kCubic,      // Cubic, plain (the stock default made explicit)
  kCubicFast,  // Cubic + HyStart slow-start exit + pacing
  kBbrLite,    // BBR-style model + pacing
};

// Canonical grammar token ("reno", "cubic", "cubic-fast", "bbr"; "" for
// kUnset) and its inverse. parse returns false on unknown tokens.
const char* to_string(RouteCc cc);
bool parse_route_cc(const std::string& token, RouteCc& out);

// Payload bytes per full segment. Every connection uses it; the
// congestion controllers, the connection and the policy zoo's BDP oracle
// all read it.
inline constexpr std::uint32_t kMss = 1460;

// Per-connection TCP settings: the ones some workload sets to a second
// value. Defaults mirror a stock Linux host of the paper's era: IW10
// (RFC 6928), Cubic, delayed ACKs, slow-start-after-idle on. The stack's
// fixed constants (RTO bounds, retry limits, TIME_WAIT, receive buffer,
// HyStart and BBR-lite thresholds) live next to their one reader.
struct TcpConfig {
  // Initial congestion window in segments (RFC 6928 default 10). Riptide
  // overrides this per destination through route metrics at connect time.
  std::uint32_t initial_cwnd_segments = 10;

  // Initial *receive* window advertised during the handshake, in segments.
  // Kept deliberately small by default (as in Linux) — §III-C explains why
  // Riptide must raise it alongside c_max or first bursts stall.
  std::uint32_t initial_rwnd_segments = 20;

  CcAlgorithm congestion_control = CcAlgorithm::kCubic;

  // Selective acknowledgments: receivers advertise out-of-order ranges and
  // the sender retransmits scoreboard holes instead of blindly resending
  // from snd_una (and go-back-N after an RTO skips ranges the peer already
  // holds). Like Linux's net.ipv4.tcp_sack, but default-off here so the
  // baseline stack stays plain NewReno; the SACK ablation quantifies it.
  bool sack = false;

  // HyStart (Reno and CUBIC): leave slow start when per-round minimum
  // RTTs show a delay increase, instead of waiting for loss. Off by
  // default — the study's flows are short and IW-dominated — but
  // available for long-flow scenarios.
  bool hystart = false;

  // Delayed-ACK policy: ACK immediately every `delayed_ack_segments`-th
  // full segment (or out-of-order data), otherwise after the delayed-ACK
  // timeout. 1 acknowledges every segment, as the analytic transfer model
  // assumes.
  std::uint32_t delayed_ack_segments = 2;

  // RFC 2861 congestion window validation: collapse cwnd back to the
  // restart window after an idle period > RTO (Linux
  // tcp_slow_start_after_idle=1). Note the restart window is the *route*
  // initial window, so Riptide speeds up idle-restarted connections too.
  bool slow_start_after_idle = true;

  // Packet pacing (Linux `fq`/`sk_pacing_rate` style): spread the window
  // over the RTT at twice cwnd / srtt instead of line-rate bursts. §II-B
  // warns that large initial windows risk burst-induced congestion; pacing
  // is the standard mitigation, and the pacing ablation bench quantifies
  // it. Pacing engages once an RTT sample exists (i.e. from the first data
  // flight — the handshake seeds the estimator).
  bool pacing = false;

  std::uint32_t initial_cwnd_bytes() const {
    return initial_cwnd_segments * kMss;
  }
  std::uint32_t initial_rwnd_bytes() const {
    return initial_rwnd_segments * kMss;
  }
};

// Rewrites `config` for a route-selected CC regime: the algorithm itself
// plus the companions that define the regime (kCubicFast arms HyStart and
// pacing; kBbrLite arms pacing, since a rate model paced only by window
// bursts defeats its purpose). kUnset leaves `config` untouched. Window
// fields are never modified — initcwnd/initrwnd stay the routing table's
// separate, composable decision.
void apply_route_cc(RouteCc cc, TcpConfig& config);

}  // namespace riptide::tcp
