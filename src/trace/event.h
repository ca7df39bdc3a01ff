#pragma once

#include <cstdint>
#include <string>

namespace riptide::trace {

// Typed decision-audit events. One enum per event family keeps the ring
// entry a flat tagged union (fixed size, trivially copyable) instead of a
// heap-backed variant — the sink can hold 64k of them in a few MB and the
// emit path is a couple of stores.
//
// The taxonomy (mirrored in DESIGN.md "Tracing and decision audit"):
//
//   tcp-state       RFC 793 state machine transition
//   tcp-cwnd        cwnd/ssthresh changed, tagged with *why*
//   tcp-rto         retransmission timer fired
//   agent-decision  one per-destination Algorithm-1 pipeline pass:
//                   raw samples -> combined -> EWMA fold -> clamp/cap
//   agent-program   what actually reached the routing table (or why not):
//                   governor scale, hysteresis skip, budget shrink
//   agent-route     route lifecycle outside the program pass: TTL expiry,
//                   staleness decay/withdrawal, reconciliation repairs,
//                   orphan withdrawals, adoption
//   agent-restore   warm-restart provenance (crash-time copy vs periodic
//                   checkpoint generation)
//   agent-rollback  governor emergency rollback swept the table
//   governor-state  the safety governor's state machine moved (normal,
//                   scale-down, selective-withdraw, cooldown), with cause
//   fault           a FaultInjector plan event fired (or a burst restored)
//   link            a link's administrative state flipped
enum class EventKind : std::uint8_t {
  kTcpState,
  kTcpCwnd,
  kTcpRto,
  kAgentDecision,
  kAgentProgram,
  kAgentRoute,
  kAgentRestore,
  kAgentRollback,
  kGovernorState,
  kFault,
  kLink,
};
const char* to_string(EventKind kind);

// Why a tcp-cwnd event happened. "initcwnd-seeded" marks construction with
// the route-supplied initial window — the jump-start moment a Fig-6-style
// timeline hinges on; the others map one-to-one onto congestion-controller
// entry points.
enum class CwndCause : std::uint8_t {
  kInitcwndSeeded,        // connection created with its initial window
  kSlowStart,             // ACK processed below ssthresh
  kCongestionAvoidance,   // ACK processed at/above ssthresh
  kFastRetransmit,        // dupack threshold -> enter recovery
  kRecoveryExit,          // full ACK ended NewReno recovery
  kRto,                   // retransmission timeout collapsed the window
  kIdleRestart,           // RFC 2861 slow-start-after-idle reset
  kHystartExit,           // HyStart ended slow start (ssthresh = cwnd)
  kBbrProbeRtt,           // BBR-lite entered its probe-RTT episode
  kPaced,                 // pacer released deferred sends (timer fired)
};
const char* to_string(CwndCause cause);

// Outcome of one agent-program attempt.
enum class ProgramVerdict : std::uint8_t {
  kProgrammed,      // route metrics written (possibly budget-scaled)
  kHysteresisSkip,  // within the governor's damping band; not written
  kBudgetShrink,    // post-pass sweep shrank an installed route to budget
  kStageScaleDown,  // staged response stage 1 scaled an installed route
};
const char* to_string(ProgramVerdict verdict);

// Route lifecycle causes outside the program pass.
enum class RouteCause : std::uint8_t {
  kExpired,             // TTL lapsed; default window restored
  kStalenessDecay,      // retransmit spike decayed the learned window
  kStalenessWithdraw,   // decay hit c_min and the path still hurts
  kReconcileRepair,     // installed route vanished/mangled; re-programmed
  kReconcileConflict,   // live metrics differed from what we installed
  kReconcileOrphan,     // learned-looking route no process owns; withdrawn
  kRollback,            // governor emergency rollback withdrew it
  kAdopted,             // leftover route adopted at start()
  kStageWithdraw,       // staged response stage 2 shed it (newest first)
  kBudgetShed,          // shed-newest budget fairness withdrew it
};
const char* to_string(RouteCause cause);

// Why the governor's state machine moved (governor-state events).
enum class GovernorCause : std::uint8_t {
  kThreshold,  // host-wide retransmit fraction crossed the brake
  kBudget,     // budget pressure (shed-newest enforcement engaged)
  kManual,     // operator/test asked for it directly
  kRecovered,  // healthy window de-escalated / cooldown elapsed
};
const char* to_string(GovernorCause cause);

// Connection identity as raw integers, so trace/ does not depend on tcp/
// (tcp depends on trace for its emit sites; a tuple dependency would be a
// cycle). Formatting back to dotted-quad happens at export time.
struct ConnKey {
  std::uint32_t local_addr;
  std::uint32_t remote_addr;
  std::uint16_t local_port;
  std::uint16_t remote_port;
};

struct TcpStateEvent {
  ConnKey conn;
  std::uint8_t from;  // tcp::TcpState values
  std::uint8_t to;
};

struct TcpCwndEvent {
  ConnKey conn;
  CwndCause cause;
  std::uint64_t cwnd_bytes;
  std::uint64_t ssthresh_bytes;
  std::uint32_t mss;
};

struct TcpRtoEvent {
  ConnKey conn;
  std::int64_t rto_ns;     // the backoff-adjusted timer that just fired
  std::uint32_t retries;   // consecutive timeouts including this one
};

// One Algorithm-1 pipeline pass for one destination: every intermediate
// the paper's §IV-A pipeline produces, so a timeline can show *why* the
// final window is what it is.
struct AgentDecisionEvent {
  std::uint32_t host;        // agent's host address
  std::uint32_t route_addr;  // destination prefix
  std::uint8_t route_len;
  std::uint8_t trend_reset;  // trend guard fired (final forced to c_min)
  std::uint8_t capped;       // operator window cap bound the result
  std::uint32_t samples;     // established connections combined
  double combined;           // combiner output (raw cwnd summary)
  double folded;             // after the EWMA fold
  double final_window;       // after clamp [c_min, c_max] and cap — stored
};

struct AgentProgramEvent {
  std::uint32_t host;
  std::uint32_t route_addr;
  std::uint8_t route_len;
  ProgramVerdict verdict;
  double scale;             // governor budget scale this poll (1 = none)
  std::uint32_t initcwnd;   // segments actually requested of the actuator
  std::uint32_t initrwnd;   // 0 when initrwnd programming is off
};

struct AgentRouteEvent {
  std::uint32_t host;
  std::uint32_t route_addr;
  std::uint8_t route_len;
  RouteCause cause;
  double window;  // learned window after the action (0 when withdrawn)
};

struct AgentRestoreEvent {
  std::uint32_t host;
  std::uint8_t from_checkpoint;  // 1 = periodic checkpoint, 0 = crash-time copy
  std::uint8_t reinstalled;      // routes re-programmed immediately
  std::uint32_t records;         // destinations recovered
  std::uint32_t generation;      // checkpoint copy used (0 = none yet)
};

struct AgentRollbackEvent {
  std::uint32_t host;
  std::uint32_t routes;  // routes withdrawn by the sweep
};

// One edge of the governor state machine. `from`/`to` carry
// core::GovernorState values (normal / scale-down / selective-withdraw /
// cooldown), exported by name; retrans_fraction is the host-wide
// retransmit rate of the poll window that drove the transition (0 when
// the cause carries no rate, e.g. cooldown expiry).
struct GovernorStateEvent {
  std::uint32_t host;
  std::uint8_t from;
  std::uint8_t to;
  GovernorCause cause;
  double retrans_fraction;
  std::uint32_t routes;  // routes the transition's action touched
};

struct FaultLifecycleEvent {
  const char* label;      // static string from faults::to_string
  std::uint8_t restored;  // 1 = a burst window closed (parameters restored)
  std::uint32_t pop_a;
  std::uint32_t pop_b;
  std::int32_t host_index;  // -1 = all agents
  double value;
  std::int64_t duration_ns;
};

struct LinkAdminEvent {
  char name[24];  // link name, truncated
  std::uint8_t up;
};

// One ring entry. `seq` is assigned by the sink at emit time and is the
// tie-break for events sharing a timestamp: within one simulation thread
// emission order is dispatch order, which the simulator already makes
// deterministic (time, then queue seq), so (at_ns, seq) is a total order
// that is stable across runs and across --threads N.
struct TraceEvent {
  std::int64_t at_ns = 0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kTcpState;
  union {
    TcpStateEvent tcp_state;
    TcpCwndEvent tcp_cwnd;
    TcpRtoEvent tcp_rto;
    AgentDecisionEvent decision;
    AgentProgramEvent program;
    AgentRouteEvent route;
    AgentRestoreEvent restore;
    AgentRollbackEvent rollback;
    GovernorStateEvent governor;
    FaultLifecycleEvent fault;
    LinkAdminEvent link;
  };

  TraceEvent() : tcp_state{} {}
};

// One JSONL object (no trailing newline), fixed key order per kind:
// {"at":ns,"seq":n,"kind":"...", ...kind-specific fields...}. Doubles use
// %.17g so export is byte-stable and round-trips exactly.
std::string to_json(const TraceEvent& event);

}  // namespace riptide::trace
