#include "chaos/shrink.h"

#include <algorithm>

namespace riptide::chaos {

namespace {

bool violates(const RunResult& result, const std::string& oracle) {
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&](const Violation& v) { return v.oracle == oracle; });
}

// Whether every agent-targeted fault names a host that exists in a world
// of `pops` PoPs x `hosts` hosts each. Candidate reductions that shrink
// the world must keep the plan's targets resolvable, or the reduced spec
// is invalid rather than smaller.
bool agent_faults_fit(const faults::FaultPlan& plan, std::size_t pops,
                      int hosts) {
  const int total = static_cast<int>(pops) * hosts;
  for (const auto& event : plan.events()) {
    switch (event.kind) {
      case faults::FaultKind::kAgentCrash:
      case faults::FaultKind::kRouteDrift:
        if (event.host_index >= total) return false;
        break;
      default:
        break;
    }
  }
  return true;
}

// Whether the spec still makes sense with its last PoP removed: nothing
// may reference PoP index pops-1 (or a host on it).
bool can_drop_last_pop(const ChaosSpec& spec) {
  if (spec.pops <= 2) return false;
  const std::size_t last = spec.pops - 1;
  if ((spec.hostile.kind == cdn::HostileKind::kIncast ||
       spec.hostile.kind == cdn::HostileKind::kCombined) &&
      spec.hostile.victim_pop >= last) {
    return false;
  }
  for (const auto& event : spec.faults.events()) {
    switch (event.kind) {
      case faults::FaultKind::kLinkDown:
      case faults::FaultKind::kLinkUp:
      case faults::FaultKind::kLinkFlap:
      case faults::FaultKind::kLossBurst:
      case faults::FaultKind::kRateChange:
      case faults::FaultKind::kDelayChange:
        if (event.pop_a >= last || event.pop_b >= last) return false;
        break;
      default:
        break;
    }
  }
  return agent_faults_fit(spec.faults, last, spec.hosts);
}

// Ordered candidate reductions of `spec`. Cheap structural cuts (whole
// fault events, whole scenarios) come before parameter reductions so the
// big wins land within small run budgets.
std::vector<ChaosSpec> candidates(const ChaosSpec& spec) {
  std::vector<ChaosSpec> out;
  for (std::size_t drop = 0; drop < spec.faults.size(); ++drop) {
    ChaosSpec c = spec;
    faults::FaultPlan reduced;
    for (std::size_t i = 0; i < spec.faults.size(); ++i) {
      if (i != drop) reduced.add(spec.faults.events()[i]);
    }
    c.faults = reduced;
    out.push_back(std::move(c));
  }
  if (spec.hostile.kind != cdn::HostileKind::kNone) {
    ChaosSpec c = spec;
    c.hostile = cdn::HostileConfig{};
    out.push_back(std::move(c));
  }
  if (spec.wan_loss > 0.0) {
    ChaosSpec c = spec;
    c.wan_loss = 0.0;
    out.push_back(std::move(c));
  }
  if (spec.budget_override > 0) {
    ChaosSpec c = spec;
    c.budget_override = 0;
    out.push_back(std::move(c));
  }
  if (spec.duration_s > 10.0) {
    ChaosSpec c = spec;
    c.duration_s = std::max(10.0, spec.duration_s / 2.0);
    out.push_back(std::move(c));
  }
  if (spec.hosts > 1 && agent_faults_fit(spec.faults, spec.pops, 1)) {
    ChaosSpec c = spec;
    c.hosts = 1;
    out.push_back(std::move(c));
  }
  if (can_drop_last_pop(spec)) {
    ChaosSpec c = spec;
    c.pops = spec.pops - 1;
    out.push_back(std::move(c));
  }
  if (spec.policy.prefix_length != 32) {
    ChaosSpec c = spec;
    c.policy.prefix_length = 32;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

ShrinkResult shrink(const ChaosSpec& failing, const std::string& oracle,
                    std::size_t max_runs) {
  ShrinkResult result;
  result.spec = failing;
  if (!failing.golden) {
    bool progress = true;
    while (progress && result.runs < max_runs) {
      progress = false;
      for (const ChaosSpec& candidate : candidates(result.spec)) {
        if (result.runs >= max_runs) break;
        ++result.runs;
        if (violates(run_chaos_spec(candidate), oracle)) {
          result.spec = candidate;
          progress = true;
          break;  // restart the reduction list from the smaller spec
        }
      }
    }
  }
  // Final verification run: the reported violations are the minimized
  // spec's own, so a repro file replays to exactly these.
  result.violations = run_chaos_spec(result.spec).violations;
  return result;
}

}  // namespace riptide::chaos
