#include "core/governor.h"

#include <algorithm>
#include <cmath>
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
  if (config_.stage_scale_factor <= 0.0 || config_.stage_scale_factor >= 1.0) {
    throw std::invalid_argument(
        "SafetyGovernor: stage_scale_factor outside (0, 1)");
  }
  if (config_.stage_withdraw_fraction <= 0.0 ||
      config_.stage_withdraw_fraction > 1.0) {
    throw std::invalid_argument(
        "SafetyGovernor: stage_withdraw_fraction outside (0, 1]");
  }
  if (config_.storm_backoff_factor < 1.0) {
    throw std::invalid_argument("SafetyGovernor: storm_backoff_factor below 1");
  }
  if (config_.max_cooldown < config_.cooldown) {
    throw std::invalid_argument("SafetyGovernor: max_cooldown below cooldown");
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

bool SafetyGovernor::arm_cooldown(sim::Time now) {
  bool storm = false;
  if (current_cooldown_ == sim::Time::zero()) {
    current_cooldown_ = config_.cooldown;
  }
  if (config_.storm_backoff_factor > 1.0) {
    const bool re_trip =
        cooled_down_once_ &&
        now <= last_cooldown_end_ + config_.storm_memory;
    if (re_trip) {
      current_cooldown_ = std::min(
          config_.max_cooldown,
          sim::Time::from_seconds(current_cooldown_.to_seconds() *
                                  config_.storm_backoff_factor));
      storm = true;
      ++storm_escalations_;
    } else {
      current_cooldown_ = config_.cooldown;
    }
  }
  state_ = GovernorState::kCooldown;
  cooldown_until_ = now + current_cooldown_;
  last_cooldown_end_ = cooldown_until_;
  cooled_down_once_ = true;
  return storm;
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

double SafetyGovernor::budget_windows(const ObservedTable& table,
                                      std::vector<BudgetWindow>& out) const {
  out.clear();
  if (config_.budget_segments == 0) return 1.0;
  if (!shed_newest()) {
    double total = 0.0;
    for (const auto& [destination, state] : table.entries()) {
      total += state.final_window_segments;
    }
    const double scale = budget_scale(total);
    if (scale < 1.0) {
      for (const auto& [destination, state] : table.entries()) {
        out.push_back({destination,
                       std::max<std::uint32_t>(
                           1, static_cast<std::uint32_t>(std::lround(
                                  state.final_window_segments * scale)))});
      }
    }
    return scale;
  }

  // Shed-newest: a destination that has survived many poll rounds has
  // earned its window; one first seen a poll or two ago has not. The
  // table keeps no first-seen timestamp, so the update count is the
  // seniority measure.
  struct Candidate {
    std::size_t index;  // into `out`, which is in prefix order
    std::uint64_t updates;
    sim::Time last_updated;
  };
  std::vector<Candidate> by_seniority;
  by_seniority.reserve(table.size());
  std::uint64_t total = 0;
  for (const auto& [destination, state] : table.entries()) {
    const auto window = std::max<std::uint32_t>(
        1,
        static_cast<std::uint32_t>(std::lround(state.final_window_segments)));
    by_seniority.push_back({out.size(), state.updates, state.last_updated});
    out.push_back({destination, window});
    total += window;
  }
  if (total <= config_.budget_segments) {
    out.clear();
    return 1.0;
  }
  std::sort(by_seniority.begin(), by_seniority.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.updates != b.updates) return a.updates > b.updates;
              if (a.last_updated != b.last_updated) {
                return a.last_updated < b.last_updated;
              }
              return a.index < b.index;
            });
  // Greedy whole-window admission, oldest first: a partial boost for the
  // first window that no longer fits still beats the default.
  std::uint32_t remaining = config_.budget_segments;
  for (const Candidate& candidate : by_seniority) {
    std::uint32_t& window = out[candidate.index].window;
    window = std::min(window, remaining);
    remaining -= window;
  }
  return 1.0;
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
