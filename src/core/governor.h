#pragma once

#include <cstdint>

#include "sim/time.h"

namespace riptide::core {

// Observable governor state. kScaleDown and kSelectiveWithdraw only occur
// with staged_response enabled; the legacy ladder is kNormal <-> kCooldown.
enum class GovernorState : std::uint8_t {
  kNormal,
  kScaleDown,          // stage 1: installed windows scaled down
  kSelectiveWithdraw,  // stage 2: newest routes withdrawn
  kCooldown,           // stage 3 fired (or legacy rollback): sitting out
};
const char* to_string(GovernorState state);

// What the staged ladder asks the agent to do this poll.
enum class StagedAction : std::uint8_t {
  kNone,
  kScaleDown,
  kSelectiveWithdraw,
  kRollback,
};

struct GovernorConfig {
  // Host-wide ceiling on the *sum* of programmed initcwnd values across
  // every route this agent owns. When a poll round's desired total
  // exceeds it, every programmed window shrinks by budget/total: relative
  // learned ordering between destinations is preserved. 0 = unlimited.
  std::uint32_t budget_segments = 0;
  // Skip reprogramming a route when |desired - installed| is within this
  // band: damps route-churn from windows oscillating by a segment or two
  // around a plateau. 0 = no damping (equal values reprogram every poll).
  std::uint32_t hysteresis_segments = 0;
  // Emergency brake: when retransmits / packets-sent over one poll
  // interval crosses this fraction, the agent responds — all-or-nothing
  // rollback by default, or the staged ladder below. 0 = disabled.
  double rollback_retrans_fraction = 0.0;
  // Rollback needs at least this many packets in the interval before the
  // retransmit fraction is meaningful (a 1-for-2 blip must not trip it).
  // A zero-packet interval is never evidence, whatever this is set to.
  std::uint64_t min_packets = 100;
  // How long to stay in kCooldown (not polling, defaults restored)
  // after a rollback before re-learning from live traffic.
  sim::Time cooldown = sim::Time::seconds(30);

  // Staged response (proportional, per-route degradation): instead of the
  // all-or-nothing host rollback, escalate one stage per consecutive
  // over-threshold poll: halve every installed window (stage 1), withdraw
  // the newest half of the routes (stage 2), then the full rollback +
  // cooldown (stage 3). Any healthy poll de-escalates straight back to
  // kNormal. Off (the default) keeps the single-stage behavior.
  bool staged_response = false;
};

// Host-wide safety valve over the agent's aggressiveness, pure decision
// logic with no side effects: the agent asks it each poll what to do
// (scale? skip? stage? roll back?) and performs the actions itself.
// Keeping the policy side-effect-free makes the state machine directly
// testable.
//
// Legacy state machine (staged_response off):
//
//   kNormal --(retrans rate over threshold)--> kCooldown
//     the agent withdraws every learned route on this edge
//   kCooldown --(cooldown elapsed)--> kNormal
//     polling resumes; the table re-learns from live traffic
//
// Staged ladder (staged_response on): one escalation per consecutive
// over-threshold poll, immediate de-escalation on a healthy one:
//
//   kNormal -> kScaleDown -> kSelectiveWithdraw -> kCooldown
//      ^___________|________________|                 |
//        (healthy poll)                (cooldown elapsed)
//
// Every knob at its zero default makes each method the identity decision
// (scale 1.0, never skip, never roll back), which is what keeps a
// governor-off run bit-identical to an agent without one.
class SafetyGovernor {
 public:
  SafetyGovernor() = default;
  // Throws std::invalid_argument when a knob is out of range.
  explicit SafetyGovernor(GovernorConfig config);

  bool rollback_enabled() const {
    return config_.rollback_retrans_fraction > 0.0;
  }
  bool staged() const {
    return rollback_enabled() && config_.staged_response;
  }

  // Should the agent withdraw everything right now? True when rollback is
  // enabled, we are not already cooling down, at least `min_packets` were
  // sent since the previous poll, and the retransmit fraction of that
  // window crossed the threshold. A zero-packet window never rolls back,
  // even with min_packets configured to 0 — no traffic is no evidence.
  bool should_rollback(std::uint64_t retrans_delta,
                       std::uint64_t packets_delta, sim::Time now);

  // Staged ladder: one transition per poll. Escalates a stage when the
  // window is over threshold, drops straight back to kNormal on a healthy
  // window, holds state on an empty (no-evidence) window. Returns the
  // action the agent must perform; kRollback leaves the state transition
  // to arm_cooldown (the agent calls it from its rollback sweep).
  StagedAction assess(std::uint64_t retrans_delta,
                      std::uint64_t packets_delta, sim::Time now);

  // Enters kCooldown until now + cooldown (the agent calls this on the
  // rollback edge).
  void arm_cooldown(sim::Time now);

  // True while cooling down; performs the kCooldown -> kNormal transition
  // when the deadline has passed.
  bool in_cooldown(sim::Time now);

  // Multiplier to apply to every programmed window so the host-wide total
  // fits the budget: min(1, budget / total_desired). Exactly 1.0 when no
  // budget is set or the total fits.
  double budget_scale(double total_desired_segments) const;

  // True when reprogramming `desired` over `installed` is churn the
  // hysteresis band says to skip. Always false with the knob at 0 — an
  // equal value is reprogrammed every poll, as the agent always has.
  bool within_hysteresis(std::uint32_t installed_segments,
                         std::uint32_t desired_segments) const;

  // Raw state, with no side effects (in_cooldown() performs the expiry
  // transition; this does not). For tracing and tests.
  GovernorState state() const { return state_; }

 private:
  bool over_threshold(std::uint64_t retrans_delta,
                      std::uint64_t packets_delta) const;

  GovernorConfig config_;
  GovernorState state_ = GovernorState::kNormal;
  sim::Time cooldown_until_;
};

}  // namespace riptide::core
