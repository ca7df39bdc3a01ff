#pragma once

#include <cstdint>
#include <vector>

#include "cdn/topology.h"
#include "core/agent.h"
#include "core/observed_table.h"
#include "faults/fault_plan.h"
#include "faults/faulty.h"
#include "sim/simulator.h"

namespace riptide::faults {

struct FaultInjectorStats {
  std::uint64_t events_fired = 0;
  std::uint64_t link_transitions = 0;  // down/up applications (flap legs too)
  std::uint64_t bursts_applied = 0;    // loss / rate / delay degradations
  std::uint64_t bursts_restored = 0;
  std::uint64_t actuator_windows = 0;  // actuator-failure windows opened
  std::uint64_t poll_windows = 0;      // poll-failure / partial windows
  std::uint64_t crashes_injected = 0;
  std::uint64_t restarts_scheduled = 0;
  std::uint64_t routes_flushed = 0;   // reboot crashes: routes lost too
  std::uint64_t routes_dropped = 0;   // route-drift deletions
  std::uint64_t routes_mangled = 0;   // route-drift in-place rewrites
};

// Per-agent checkpoint counters (FaultHarness::checkpoint_totals sums
// them across agents).
struct CheckpointStats {
  std::uint64_t checkpoints_written = 0;  // periodic table copies taken
  std::uint64_t restores = 0;             // warm restarts fed by a copy
  std::uint64_t records_recovered = 0;    // table entries those restored
};

// A warm-restart checkpoint: an agent's learned table as of its newest
// periodic copy. It lives outside the agent, so it outlives crash() as a
// file outlives a process. `stats.checkpoints_written` doubles as the
// generation of `table` (0 = no copy taken yet).
struct Checkpoint {
  core::ObservedTable table;
  CheckpointStats stats;
};

// Turns a declarative FaultPlan into scheduled simulator events against a
// concrete topology and set of agents. Everything is driven by sim time,
// so a given (plan, topology, seed) triple replays identically.
//
// Link faults hit both directions of the named PoP pair. Bursts capture
// the parameter they overwrite and restore it when the window closes, so
// overlapping windows compose last-writer-wins and still unwind. Agent
// faults fan out to every registered agent (crash can target one host
// index instead).
class FaultInjector {
 public:
  // The per-agent injection surface. `actuator` / `stats_source` may be
  // null when that agent is not wired through the fault decorators (its
  // actuator/poll faults are then skipped).
  struct AgentHooks {
    core::RiptideAgent* agent = nullptr;
    FaultyRouteProgrammer* actuator = nullptr;
    FaultySocketStatsSource* stats_source = nullptr;
    // Non-null when the agent is checkpointed periodically; warm restarts
    // then restore the newest copy instead of the table as it was at the
    // crash.
    Checkpoint* checkpoint = nullptr;
  };

  FaultInjector(sim::Simulator& sim, cdn::Topology& topology, FaultPlan plan)
      : sim_(sim), topology_(topology), plan_(std::move(plan)) {}

  // Register before arm(); crash events index into registration order.
  void register_agent(AgentHooks hooks) { hooks_.push_back(hooks); }

  // Validates the plan against the topology/agents and schedules every
  // event at its absolute sim time. Call exactly once, before running.
  void arm();

  const FaultInjectorStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }
  const std::vector<AgentHooks>& hooks() const { return hooks_; }

 private:
  void validate(const FaultEvent& ev) const;
  void apply(const FaultEvent& ev);
  void set_pair_up(std::size_t a, std::size_t b, bool up);
  void apply_loss_burst(const FaultEvent& ev);
  void apply_rate_change(const FaultEvent& ev);
  void apply_delay_change(const FaultEvent& ev);
  void apply_actuator_window(const FaultEvent& ev);
  void apply_poll_window(const FaultEvent& ev);
  void apply_crash(const FaultEvent& ev);
  void crash_one(AgentHooks hooks, sim::Time downtime, bool warm,
                 bool flush_routes);
  void restore(core::RiptideAgent& agent, Checkpoint* checkpoint,
               const core::ObservedTable& crash_copy, bool reinstall_routes);
  void apply_route_drift(const FaultEvent& ev);
  // Dispatches an agent-targeted event to one hook or all of them.
  template <typename Fn>
  void for_targets(const FaultEvent& ev, Fn&& fn) {
    if (ev.host_index >= 0) {
      fn(hooks_[static_cast<std::size_t>(ev.host_index)]);
      return;
    }
    for (const AgentHooks& hooks : hooks_) fn(hooks);
  }

  sim::Simulator& sim_;
  cdn::Topology& topology_;
  FaultPlan plan_;
  std::vector<AgentHooks> hooks_;
  bool armed_ = false;
  FaultInjectorStats stats_;
};

}  // namespace riptide::faults
