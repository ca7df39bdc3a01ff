#include "core/governor.h"

#include <stdexcept>

namespace riptide::core {

const char* to_string(GovernorState state) {
  switch (state) {
    case GovernorState::kNormal:
      return "normal";
    case GovernorState::kScaleDown:
      return "scale-down";
    case GovernorState::kSelectiveWithdraw:
      return "selective-withdraw";
    case GovernorState::kCooldown:
      return "cooldown";
  }
  return "unknown";
}

SafetyGovernor::SafetyGovernor(GovernorConfig config) : config_(config) {
  if (config_.rollback_retrans_fraction < 0.0 ||
      config_.rollback_retrans_fraction > 1.0) {
    throw std::invalid_argument(
        "SafetyGovernor: rollback_retrans_fraction outside [0, 1]");
  }
}

bool SafetyGovernor::over_threshold(std::uint64_t retrans_delta,
                                    std::uint64_t packets_delta) const {
  // A zero-packet poll window is no evidence either way: with
  // min_packets configured to 0 the comparison below would read
  // 0 >= fraction * 0 and trip a spurious rollback on an idle host.
  if (packets_delta == 0) return false;
  if (packets_delta < config_.min_packets) return false;
  return static_cast<double>(retrans_delta) >=
         config_.rollback_retrans_fraction *
             static_cast<double>(packets_delta);
}

bool SafetyGovernor::should_rollback(std::uint64_t retrans_delta,
                                     std::uint64_t packets_delta,
                                     sim::Time now) {
  if (!rollback_enabled()) return false;
  if (in_cooldown(now)) return false;
  return over_threshold(retrans_delta, packets_delta);
}

StagedAction SafetyGovernor::assess(std::uint64_t retrans_delta,
                                    std::uint64_t packets_delta,
                                    sim::Time now) {
  if (!rollback_enabled()) return StagedAction::kNone;
  if (in_cooldown(now)) return StagedAction::kNone;
  if (packets_delta == 0 || packets_delta < config_.min_packets) {
    // No evidence: hold whatever stage we are in rather than either
    // escalating (an idle window is not a loss storm) or celebrating a
    // recovery that never carried traffic.
    return StagedAction::kNone;
  }
  if (!over_threshold(retrans_delta, packets_delta)) {
    // One healthy window clears the ladder entirely: the staged actions
    // already took the pressure off, and lingering in a degraded stage
    // would keep shrinking a host that has stopped hurting.
    state_ = GovernorState::kNormal;
    return StagedAction::kNone;
  }
  switch (state_) {
    case GovernorState::kNormal:
      state_ = GovernorState::kScaleDown;
      return StagedAction::kScaleDown;
    case GovernorState::kScaleDown:
      state_ = GovernorState::kSelectiveWithdraw;
      return StagedAction::kSelectiveWithdraw;
    case GovernorState::kSelectiveWithdraw:
      // The kCooldown transition happens in arm_cooldown, which the agent
      // calls from its rollback sweep (same contract as the legacy path).
      return StagedAction::kRollback;
    case GovernorState::kCooldown:
      return StagedAction::kNone;
  }
  return StagedAction::kNone;
}

void SafetyGovernor::arm_cooldown(sim::Time now) {
  state_ = GovernorState::kCooldown;
  cooldown_until_ = now + config_.cooldown;
}

bool SafetyGovernor::in_cooldown(sim::Time now) {
  if (state_ != GovernorState::kCooldown) return false;
  if (now >= cooldown_until_) {
    state_ = GovernorState::kNormal;
    return false;
  }
  return true;
}

double SafetyGovernor::budget_scale(double total_desired_segments) const {
  if (config_.budget_segments == 0) return 1.0;
  if (total_desired_segments <=
      static_cast<double>(config_.budget_segments)) {
    return 1.0;
  }
  return static_cast<double>(config_.budget_segments) /
         total_desired_segments;
}

bool SafetyGovernor::within_hysteresis(std::uint32_t installed_segments,
                                       std::uint32_t desired_segments) const {
  if (config_.hysteresis_segments == 0) return false;
  const std::uint32_t delta = installed_segments > desired_segments
                                  ? installed_segments - desired_segments
                                  : desired_segments - installed_segments;
  return delta <= config_.hysteresis_segments;
}

}  // namespace riptide::core
