#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/combiner.h"
#include "core/config.h"
#include "core/governor.h"
#include "core/observed_table.h"
#include "core/route_programmer.h"
#include "core/socket_stats_source.h"
#include "host/host.h"
#include "sim/simulator.h"
#include "trace/event.h"

namespace riptide::core {

struct AgentStats {
  std::uint64_t polls = 0;
  std::uint64_t connections_observed = 0;
  std::uint64_t destinations_updated = 0;
  std::uint64_t routes_set = 0;
  std::uint64_t routes_expired = 0;
  std::uint64_t trend_resets = 0;  // trend-guard triggered (§V)

  // -- degradation paths (agent hardening) --
  std::uint64_t polls_failed = 0;         // snapshot unavailable, skipped
  std::uint64_t actuator_failures = 0;    // individual failed program/clear
  std::uint64_t actuator_retries = 0;     // backoff retries scheduled
  std::uint64_t actuator_dead_letters = 0;  // ops dropped after max retries
  std::uint64_t staleness_decays = 0;       // learned window decayed
  std::uint64_t staleness_withdrawals = 0;  // learned route withdrawn
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;        // start() calls after the first
  std::uint64_t routes_adopted = 0;  // leftover routes re-aged at start()

  // -- route reconciliation (desired vs live routing table) --
  std::uint64_t reconcile_repaired = 0;     // re-programmed deleted/mangled
  std::uint64_t reconcile_orphaned = 0;     // withdrew learned route not ours
  std::uint64_t reconcile_conflicting = 0;  // live metrics != installed

  // -- safety governor --
  std::uint64_t governor_budget_scaledowns = 0;  // polls scaled to budget
  std::uint64_t governor_hysteresis_skips = 0;   // programs damped away
  std::uint64_t governor_rollbacks = 0;          // emergency rollbacks fired
  std::uint64_t governor_routes_rolled_back = 0;
  std::uint64_t governor_cooldown_polls = 0;     // polls skipped cooling down

  // -- staged response + budget fairness (governor hardening) --
  std::uint64_t governor_stage_scaledowns = 0;   // stage-1 actions fired
  std::uint64_t governor_routes_stage_scaled = 0;
  std::uint64_t governor_stage_withdrawals = 0;  // stage-2 actions fired
  std::uint64_t governor_routes_stage_withdrawn = 0;
  std::uint64_t governor_budget_sheds = 0;       // shed-newest polls enforced
  std::uint64_t governor_routes_budget_shed = 0;
  std::uint64_t governor_storm_escalations = 0;  // cooldowns grown by storms
};

// Field-by-field sum, for totals across a fleet of agents.
AgentStats& operator+=(AgentStats& total, const AgentStats& add);

// How one poll_once() iteration ended, handed to the post-poll hook so
// invariant checkers (src/chaos) know which guarantees the poll actually
// established. A poll that bailed early — cooldown, a staged governor
// action, or a failed snapshot — never reached the budget-enforcement and
// expiry passes, so the corresponding invariants must not be judged on it.
struct PollOutcome {
  // Reached the end of the poll body: reconcile, fold, budget enforcement,
  // staleness guard and expiry all ran.
  bool completed = false;
  // reconcile_route_table() ran this poll (requires config.reconcile_routes
  // and no governor early-exit before it).
  bool reconciled = false;
  // The `ss` snapshot succeeded (false on PollError or early exits).
  bool snapshot_ok = false;
};

// The Riptide agent (paper Algorithm 1). Runs on one host, entirely from
// "user space": every `update_interval` it
//   1. snapshots the host's open connections (the `ss` poll),
//   2. groups them by destination at the configured granularity,
//   3. combines each group's congestion windows (average by default),
//   4. folds the result into the per-destination EWMA history,
//   5. clamps to [c_min, c_max] and programs the route's initcwnd
//      (and initrwnd, §III-C),
//   6. expires entries unseen for `ttl` and withdraws their routes,
//      restoring the default initial window.
// poll_once() runs these as named stages, with the safety governor's gate
// and route reconciliation in front and the budget and staleness guard in
// between (see poll_once_impl), and every route write goes through one
// program()/withdraw() pair.
//
// No coordination with any other node, no kernel changes: the agent only
// reads connection state and writes route metrics, matching the deployment
// constraints of §II-A.
//
// The agent is hardened against its two external dependencies failing:
// a poll that throws PollError is skipped and counted (no fold, no expiry
// — a failed snapshot is "no information", not "no connections"), and a
// failed route program/clear is retried with bounded exponential backoff,
// landing in a dead-letter counter when the actuator stays broken. The
// optional staleness guard withdraws learned windows whose destinations
// retransmit heavily — the Pied-Piper failure mode where a boosted window
// meets a path that can no longer carry it.
class RiptideAgent {
 public:
  // If `programmer` is null, a HostRouteProgrammer on `host` is used; if
  // `stats_source` is null, the host's in-memory `ss` surface is used.
  // Throws std::invalid_argument when a config value is out of range.
  RiptideAgent(sim::Simulator& sim, host::Host& host, RiptideConfig config,
               std::unique_ptr<RouteProgrammer> programmer = nullptr,
               std::unique_ptr<SocketStatsSource> stats_source = nullptr);

  // Begins periodic polling, first poll after one update_interval. Adopts
  // leftover Riptide routes from the host routing table (a crashed
  // predecessor's), aged from now, so TTL expiry reclaims them.
  void start();
  void stop();
  bool running() const { return running_; }

  // Simulates the agent process dying: polling stops, pending actuator
  // retries are dropped, and the in-memory ObservedTable is lost. Routes
  // already installed stay behind in the host routing table — exactly the
  // stale-window hazard the fault benches measure.
  void crash();

  // Warm-restart support: a copy of the table kept outside the agent (the
  // fault harness's checkpoint) can be restored before start() to resume
  // with history instead of re-learning from scratch. With
  // `reinstall_routes` the restored entries are also re-aged from now and
  // programmed into the host routing table immediately — the jump-start
  // for a host whose routes did not survive (reboot rather than mere
  // process death). Without it the table is taken verbatim, timestamps
  // included.
  ObservedTable snapshot_table() const { return table_; }
  void restore_table(ObservedTable snapshot, bool reinstall_routes = false);

  // One Algorithm-1 iteration. Exposed so tests and tools can step the
  // agent deterministically.
  void poll_once();

  // Observation hook for invariant oracles (src/chaos): invoked at the end
  // of every poll_once() — including early exits — with how the poll
  // ended. The hook runs inside the poll's event callback, so no other
  // simulation event can interleave between the poll body and the check.
  // Null (the default) costs one branch; behavior is otherwise unchanged.
  using PostPollHook = std::function<void(RiptideAgent&, const PollOutcome&)>;
  void set_post_poll_hook(PostPollHook hook) {
    post_poll_hook_ = std::move(hook);
  }

  // §V: operator hook for higher-level signals. A nonzero cap bounds every
  // programmed window below `cap_segments` (e.g. a load balancer about to
  // shift traffic onto this node's paths asks for conservative windows to
  // "avoid sudden crowding"). Takes effect from the next poll; 0 clears.
  void set_window_cap(std::uint32_t cap_segments) {
    window_cap_segments_ = cap_segments;
  }
  std::uint32_t window_cap() const { return window_cap_segments_; }

  // Operator hook: withdraw every learned route and enter cooldown right
  // now, regardless of health signals (e.g. a pre-announced maintenance
  // window where boosted bursts must not land). Traced with cause
  // "manual" so the audit trail distinguishes it from the brake firing.
  void manual_rollback();

  // Read-only view of the safety governor (state machine, effective
  // cooldown) for tests and monitoring.
  const SafetyGovernor& governor() const { return governor_; }

  // Destination key for a peer address at the configured granularity.
  net::Prefix destination_key(net::Ipv4Address peer) const;

  // Currently learned (clamped) window for a destination, if any.
  const DestinationState* learned(const net::Prefix& destination) const {
    return table_.find(destination);
  }
  const ObservedTable& table() const { return table_; }
  const RiptideConfig& config() const { return config_; }
  const AgentStats& stats() const { return stats_; }
  host::Host& host() { return host_; }

  // The actuator / observation surface actually in use (fault harnesses
  // downcast these to reach their injection knobs).
  RouteProgrammer& programmer() { return *programmer_; }
  SocketStatsSource& stats_source() { return *stats_source_; }

  // Route programs/clears awaiting an actuator retry.
  std::size_t pending_actuator_ops() const { return pending_ops_.size(); }
  // Whether a retry is pending for this destination. Oracles exclude such
  // destinations: the agent knows they are inconsistent and is fixing them.
  bool has_pending_op(const net::Prefix& destination) const {
    return pending_ops_.contains(destination);
  }

  // The routes this agent believes it has installed in the host routing
  // table (successful programs minus successful withdrawals) — the "ours"
  // side the reconciler and the chaos oracles diff against the live table.
  const std::map<net::Prefix, host::RouteMetrics, net::PrefixOrder>&
  installed_routes() const {
    return installed_;
  }

 private:
  // One observed connection's loss-recovery counters at the previous
  // poll, for retransmit-rate deltas that survive cumulative counting.
  struct SeenCounters {
    std::uint64_t retransmissions = 0;
    std::uint64_t segments_sent = 0;
    bool seen_this_poll = false;
  };

  // A route program or clear that failed and is waiting to be retried.
  struct PendingOp {
    std::uint32_t initcwnd = 0;
    bool clear = false;
    std::uint32_t attempts = 0;  // failed attempts so far
    sim::EventHandle timer;
  };

  // The trace record a route write leaves, emitted just before the
  // actuator call: a program verdict, a route-lifecycle cause, or nothing
  // (retries and warm-restore reinstalls replay decisions already made).
  struct Audit {
    enum class Kind : std::uint8_t { kNone, kProgram, kRoute };
    Kind kind = Kind::kNone;
    trace::ProgramVerdict verdict = trace::ProgramVerdict::kProgrammed;
    trace::RouteCause cause = trace::RouteCause::kExpired;
    double value = 0.0;  // kProgram: the scale; kRoute: the window

    static Audit program(trace::ProgramVerdict verdict, double scale) {
      return {Kind::kProgram, verdict, {}, scale};
    }
    static Audit route(trace::RouteCause cause, double window = 0.0) {
      return {Kind::kRoute, {}, cause, window};
    }
  };

  // -- poll_once stages, in order --
  // Host-wide health: false when the poll ends here (cooling down, or a
  // staged action or rollback fired).
  bool governor_gate(sim::Time now);
  void reconcile_route_table();
  // The `ss` poll: false (and counted) when the snapshot failed.
  bool take_snapshot(std::vector<host::SocketInfo>& snapshot);
  // Groups established connections by destination into poll_scratch_.
  void observe(const std::vector<host::SocketInfo>& snapshot);
  // Combine, fold, guard and clamp each destination: its final window,
  // in ascending destination order.
  std::vector<std::pair<net::Prefix, double>> decide(sim::Time now);
  // The budget's answer for this poll into budget_windows_.
  void budget();
  // Programs the decisions under the budget, then applies the budget to
  // the routes earlier polls installed.
  void actuate(const std::vector<std::pair<net::Prefix, double>>& decisions);
  void budget_sweep(std::uint64_t shed_before);
  void staleness_guard(const std::vector<host::SocketInfo>& snapshot,
                       sim::Time now);
  void expire(sim::Time now);

  // The one route-write path: every change to the host routing table goes
  // through this pair. It records `audit`, applies the initrwnd rule,
  // calls the actuator, hands a failure to the retry timer, and keeps
  // installed_ and pending_ops_ in step with the table.
  void program(const net::Prefix& dst, std::uint32_t initcwnd,
               const Audit& audit);
  void withdraw(const net::Prefix& dst, const Audit& audit);
  // The metrics program() installs for `initcwnd`: initrwnd per §III-C
  // (set_initrwnd) and the configured route cc.
  host::RouteMetrics route_metrics(std::uint32_t initcwnd) const;
  void retry_later(const net::Prefix& dst, std::uint32_t initcwnd,
                   bool clear);
  void retry_pending(const net::Prefix& dst);
  void cancel_pending_ops();

  PollOutcome poll_once_impl();
  double clamp_window(double value) const;
  // The budget's cap for `dst` this poll, or null when it does not bind.
  const std::uint32_t* budget_window(const net::Prefix& dst) const;
  void adopt_existing_routes();
  // Governor actions.
  void emergency_rollback(sim::Time now, double retrans_fraction,
                          trace::GovernorCause cause);
  void staged_scale_down(GovernorState from, double retrans_fraction);
  void staged_selective_withdraw(GovernorState from, double retrans_fraction);
  // Staleness guard: per-destination retransmit deltas since last poll.
  std::map<net::Prefix, std::pair<std::uint64_t, std::uint64_t>>
  retransmit_deltas(const std::vector<host::SocketInfo>& snapshot);

  // -- decision-audit tracing (src/trace) --
  // Emit one record; no-ops costing a thread-local load when no sink is
  // installed on this thread.
  void trace_audit(const Audit& audit, const net::Prefix& dst,
                   const host::RouteMetrics& metrics);
  void trace_route(trace::RouteCause cause, const net::Prefix& dst,
                   double window);
  void trace_program(trace::ProgramVerdict verdict, const net::Prefix& dst,
                     double scale, std::uint32_t initcwnd,
                     std::uint32_t initrwnd);
  void trace_governor_state(GovernorState from, GovernorState to,
                            trace::GovernorCause cause,
                            double retrans_fraction, std::uint32_t routes);

  sim::Simulator& sim_;
  host::Host& host_;
  RiptideConfig config_;
  std::unique_ptr<RouteProgrammer> programmer_;
  std::unique_ptr<SocketStatsSource> stats_source_;
  std::unique_ptr<Combiner> combiner_;
  ObservedTable table_;
  sim::EventHandle poll_timer_;
  PostPollHook post_poll_hook_;
  bool running_ = false;
  bool started_once_ = false;
  std::uint32_t window_cap_segments_ = 0;
  std::map<net::Prefix, PendingOp> pending_ops_;
  std::unordered_map<tcp::FourTuple, SeenCounters, tcp::FourTupleHash>
      seen_counters_;
  // What this agent believes it has installed in the host routing table
  // (successful programs minus successful withdrawals). The reconciler
  // diffs this against the live table; lost with the process on crash().
  std::map<net::Prefix, host::RouteMetrics, net::PrefixOrder> installed_;
  SafetyGovernor governor_;
  // Host-wide counter values at the previous poll, for governor deltas.
  std::uint64_t prev_host_retrans_ = 0;
  std::uint64_t prev_host_packets_ = 0;
  // Poll-loop scratch, reused across polls so steady-state polling does
  // not allocate: observations tagged with their destination, stably
  // sorted so each destination is a contiguous run, plus the flat
  // observation array the combiner spans point into; the budget's answer
  // (and its proportional scale); and the routes a sweep collects before
  // writing (writes mutate installed_).
  struct DestObservation {
    net::Prefix destination;
    Observation obs;
  };
  std::vector<DestObservation> poll_scratch_;
  std::vector<Observation> poll_observations_;
  std::vector<BudgetWindow> budget_windows_;
  double budget_scale_ = 1.0;
  std::vector<std::pair<net::Prefix, std::uint32_t>> sweep_;
  AgentStats stats_;
};

}  // namespace riptide::core
