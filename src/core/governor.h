#pragma once

#include <cstdint>
#include <vector>

#include "core/observed_table.h"
#include "net/ipv4.h"
#include "sim/time.h"

namespace riptide::core {

// How the host-wide initcwnd budget is enforced when the table wants more
// than the budget admits.
enum class BudgetFairness : std::uint8_t {
  // Every programmed window shrinks by budget/total — relative learned
  // ordering between destinations is preserved, but a flood of new
  // destinations dilutes long-established routes along with the newcomers.
  kProportional,
  // Seniority-ordered admission: destinations with the longest learning
  // history keep their full windows; the newest routes are shed (their
  // boost withdrawn, falling back to the default initial window) until the
  // total fits. Prevents the starvation case where a flash crowd of fresh
  // destinations drags every veteran route toward the floor.
  kShedNewest,
};

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
  // exceeds it, enforcement follows `budget_fairness`: proportional
  // scale-down (default) or newest-first shedding. 0 = unlimited.
  std::uint32_t budget_segments = 0;
  BudgetFairness budget_fairness = BudgetFairness::kProportional;
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

  // -- staged response (proportional, per-route degradation) --
  // Instead of the all-or-nothing host rollback, escalate one stage per
  // consecutive over-threshold poll: scale every installed window down
  // (stage 1), withdraw the newest routes (stage 2), then the full
  // rollback + cooldown (stage 3). Any healthy poll de-escalates straight
  // back to kNormal. Off (the default) keeps the historical single-stage
  // behavior bit-identical.
  bool staged_response = false;
  // Stage 1 multiplier applied to every installed initcwnd.
  double stage_scale_factor = 0.5;
  // Stage 2: fraction of installed routes withdrawn, newest first.
  double stage_withdraw_fraction = 0.5;

  // -- rollback-storm hysteresis --
  // > 1 enables it: a rollback re-armed within `storm_memory` of the
  // previous cooldown's end is a storm (synchronized retransmit spikes
  // re-tripping the brake the moment it releases), and each such rollback
  // multiplies the next cooldown by this factor, capped at max_cooldown.
  // A rollback after a quiet period resets to the base cooldown. 1.0 (the
  // default) is the identity: every cooldown is exactly `cooldown`.
  double storm_backoff_factor = 1.0;
  sim::Time max_cooldown = sim::Time::seconds(480);
  sim::Time storm_memory = sim::Time::seconds(120);
};

// One destination's share of the host-wide initcwnd budget for one poll.
struct BudgetWindow {
  net::Prefix destination;
  std::uint32_t window = 0;  // the largest initcwnd it may install; 0 = shed
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
  bool shed_newest() const {
    return config_.budget_fairness == BudgetFairness::kShedNewest;
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

  // Enters kCooldown until now + effective cooldown (the agent calls this
  // on the rollback edge). Returns true when storm hysteresis extended
  // the cooldown beyond its base value (a storm escalation).
  bool arm_cooldown(sim::Time now);

  // True while cooling down; performs the kCooldown -> kNormal transition
  // when the deadline has passed.
  bool in_cooldown(sim::Time now);

  // Multiplier to apply to every programmed window so the host-wide total
  // fits the budget: min(1, budget / total_desired). Exactly 1.0 when no
  // budget is set or the total fits.
  double budget_scale(double total_desired_segments) const;

  // The budget's answer for one poll: for every destination of `table`,
  // in table order, the largest initcwnd it may install (0 = shed). `out`
  // is left empty when no budget is set or the table fits. Proportional
  // fairness scales every learned window by budget_scale(total) and
  // returns that factor (1.0 otherwise). Shed-newest admits whole windows
  // by seniority — most updates first, then the least recently refreshed,
  // then prefix order — gives the first window that no longer fits
  // whatever is left, and sheds everything junior to it.
  double budget_windows(const ObservedTable& table,
                        std::vector<BudgetWindow>& out) const;

  // True when reprogramming `desired` over `installed` is churn the
  // hysteresis band says to skip. Always false with the knob at 0 — an
  // equal value is reprogrammed every poll, as the agent always has.
  bool within_hysteresis(std::uint32_t installed_segments,
                         std::uint32_t desired_segments) const;

  // Raw state, with no side effects (in_cooldown() performs the expiry
  // transition; this does not). For tracing and tests.
  GovernorState state() const { return state_; }
  // The cooldown arm_cooldown would use right now (post-storm-backoff).
  sim::Time current_cooldown() const { return current_cooldown_; }
  std::uint64_t storm_escalations() const { return storm_escalations_; }

  const GovernorConfig& config() const { return config_; }

 private:
  bool over_threshold(std::uint64_t retrans_delta,
                      std::uint64_t packets_delta) const;

  GovernorConfig config_;
  GovernorState state_ = GovernorState::kNormal;
  sim::Time cooldown_until_;
  // Storm-hysteresis memory: the effective cooldown (grows by
  // storm_backoff_factor per storm rollback) and when the last cooldown
  // ended (to tell a storm re-trip from an isolated incident).
  sim::Time current_cooldown_;
  sim::Time last_cooldown_end_;
  bool cooled_down_once_ = false;
  std::uint64_t storm_escalations_ = 0;
};

}  // namespace riptide::core
