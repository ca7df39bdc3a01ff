#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace riptide::faults {

// What a scheduled fault does when it fires. Link faults name a PoP pair
// and are applied to both directions of the WAN pipe; agent faults apply
// to every registered agent or to one host index.
enum class FaultKind {
  kLinkDown,      // administratively down: every offered packet dropped
  kLinkUp,        // bring the pair back up
  kLinkFlap,      // `count` alternating down/up transitions, `period` apart
  kLossBurst,     // set i.i.d. loss to `value` for `duration`, then restore
  kRateChange,    // multiply link rate by `value` for `duration`
  kDelayChange,   // add `value` ms of propagation delay for `duration`
  kActuatorFail,  // route program/clear fails with probability `value`
  kPollFail,      // `ss` poll throws with probability `value`
  kPollPartial,   // each snapshot entry dropped with probability `value`
  kAgentCrash,    // crash agent(s), restart after `duration` (warm or cold)
  kRouteDrift,    // externally delete/mangle learned routes in place
};

const char* to_string(FaultKind kind);

// One deterministic, sim-time-scheduled fault event. Field use by kind:
//   pop_a/pop_b  link events: the WAN pair (both directions)
//   value        loss/fail probability, partial drop fraction, rate
//                factor, extra delay in ms, or route-drift delete fraction
//   value2       route-drift only: fraction of learned routes mangled
//   duration     burst/degradation length, flap period, or crash downtime
//   count        flap transitions (down is first; even count ends up)
//   host_index   agent-target index into registration order; -1 = all
//                (crash, route-drift)
//   warm         crash only: restore the checkpointed table on restart
//   flush_routes crash only: the host rebooted, so learned routes are
//                flushed from the routing table at crash time
struct FaultEvent {
  sim::Time at;
  FaultKind kind = FaultKind::kLinkDown;
  std::size_t pop_a = 0;
  std::size_t pop_b = 0;
  double value = 0.0;
  double value2 = 0.0;
  sim::Time duration;
  int count = 0;
  int host_index = -1;
  bool warm = false;
  bool flush_routes = false;

  // Field-wise, for spec round-trip checks and the chaos shrinker.
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

// A declarative, composable list of fault events. Build in code via the
// fluent adders, or parse from a compact spec string:
//
//   spec    := event (';' event)*
//   event   := '@' SECONDS action
//   action  := 'down' LINK | 'up' LINK | 'flap' LINK PERIOD_S COUNT
//            | 'loss' LINK P DUR_S | 'rate' LINK FACTOR DUR_S
//            | 'delay' LINK EXTRA_MS DUR_S
//            | 'actuator-fail' P DUR_S
//            | 'poll-fail' P DUR_S | 'poll-partial' FRAC DUR_S
//            | 'crash' HOST DOWNTIME_S MODE
//            | 'route-drift' HOST DEL_FRAC MANGLE_FRAC
//   MODE    := 'warm' | 'cold' | 'reboot-warm' | 'reboot-cold'
//   LINK    := POP '-' POP        (PoP indices, e.g. 0-1)
//
// The reboot crash modes also flush learned routes from the host routing
// table (process death keeps kernel routes; a reboot does not). HOST is an
// agent index or -1 for all.
//
// Example: "@5 flap 0-1 2 6; @10 actuator-fail 0.3 30; @20 loss 0-1 0.05 10"
// Whitespace between tokens is free-form; times accept fractions ("@2.5").
// Every number must be finite: times and durations (EXTRA_MS included)
// lie in [0, 1e6] s, FACTOR in [1e-6, 1e6], and PoP, HOST and COUNT are
// whole numbers up to 1e6.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(FaultEvent event) {
    events_.push_back(event);
    return *this;
  }

  FaultPlan& link_down(sim::Time at, std::size_t a, std::size_t b);
  FaultPlan& link_up(sim::Time at, std::size_t a, std::size_t b);
  FaultPlan& link_flap(sim::Time at, std::size_t a, std::size_t b,
                       sim::Time period, int transitions);
  FaultPlan& loss_burst(sim::Time at, std::size_t a, std::size_t b,
                        double probability, sim::Time duration);
  FaultPlan& rate_factor(sim::Time at, std::size_t a, std::size_t b,
                         double factor, sim::Time duration);
  FaultPlan& extra_delay(sim::Time at, std::size_t a, std::size_t b,
                         double extra_ms, sim::Time duration);
  FaultPlan& actuator_failures(sim::Time at, double probability,
                               sim::Time duration);
  FaultPlan& poll_failures(sim::Time at, double probability,
                           sim::Time duration);
  FaultPlan& poll_partial(sim::Time at, double drop_fraction,
                          sim::Time duration);
  FaultPlan& agent_crash(sim::Time at, int host_index, sim::Time downtime,
                         bool warm, bool flush_routes = false);
  FaultPlan& route_drift(sim::Time at, int host_index, double delete_fraction,
                         double mangle_fraction);

  // Throws std::invalid_argument naming the offending token and its byte
  // offset on malformed input. An empty (or all-whitespace) spec yields an
  // empty plan.
  static FaultPlan parse(const std::string& spec);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
};

// Canonical spec string: parse(to_spec_string(plan)) == plan for every
// plan whose events came from parse or the fluent builders. The shrinker
// (src/chaos) leans on this to re-serialize reduced plans.
std::string to_spec_string(const FaultPlan& plan);

}  // namespace riptide::faults
