#include "core/agent.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "trace/sink.h"

namespace riptide::core {

namespace {

// Actuator retry: a failed route write is retried after kActuatorBackoff,
// doubling per attempt, and dropped as a dead letter after
// kActuatorMaxRetries retries.
constexpr std::uint32_t kActuatorMaxRetries = 4;
constexpr sim::Time kActuatorBackoff = sim::Time::milliseconds(100);

// Staleness guard: judged once kStalenessMinSegments were sent since the
// previous poll; a retransmit share at or above kStalenessRetransFraction
// multiplies the learned window by kStalenessDecay.
constexpr double kStalenessRetransFraction = 0.2;
constexpr std::uint32_t kStalenessMinSegments = 20;
constexpr double kStalenessDecay = 0.5;

// Staged ladder: stage 1 multiplies every installed window by
// kStageScaleFactor; stage 2 withdraws the newest kStageWithdrawFraction
// of the installed routes.
constexpr double kStageScaleFactor = 0.5;
constexpr double kStageWithdrawFraction = 0.5;

}  // namespace

RiptideAgent::RiptideAgent(sim::Simulator& sim, host::Host& host,
                           RiptideConfig config,
                           std::unique_ptr<RouteProgrammer> programmer,
                           std::unique_ptr<SocketStatsSource> stats_source)
    : sim_(sim),
      host_(host),
      config_(config),
      programmer_(programmer ? std::move(programmer)
                             : std::make_unique<HostRouteProgrammer>(host)),
      stats_source_(stats_source
                        ? std::move(stats_source)
                        : std::make_unique<HostSocketStatsSource>(host)),
      combiner_(make_combiner(config.combiner)),
      governor_(config.governor) {
  if (config_.alpha < 0.0 || config_.alpha > 1.0) {
    throw std::invalid_argument("RiptideAgent: alpha outside [0, 1]");
  }
  if (config_.c_min == 0 || config_.c_min > config_.c_max) {
    throw std::invalid_argument("RiptideAgent: need 0 < c_min <= c_max");
  }
  if (config_.granularity == Granularity::kPrefix &&
      (config_.prefix_length < 1 || config_.prefix_length > 32)) {
    throw std::invalid_argument("RiptideAgent: bad prefix_length");
  }
}

AgentStats& operator+=(AgentStats& total, const AgentStats& add) {
  total.polls += add.polls;
  total.connections_observed += add.connections_observed;
  total.destinations_updated += add.destinations_updated;
  total.routes_set += add.routes_set;
  total.routes_expired += add.routes_expired;
  total.polls_failed += add.polls_failed;
  total.actuator_failures += add.actuator_failures;
  total.actuator_retries += add.actuator_retries;
  total.actuator_dead_letters += add.actuator_dead_letters;
  total.staleness_decays += add.staleness_decays;
  total.staleness_withdrawals += add.staleness_withdrawals;
  total.crashes += add.crashes;
  total.restarts += add.restarts;
  total.routes_adopted += add.routes_adopted;
  total.reconcile_repaired += add.reconcile_repaired;
  total.reconcile_orphaned += add.reconcile_orphaned;
  total.reconcile_conflicting += add.reconcile_conflicting;
  total.governor_budget_scaledowns += add.governor_budget_scaledowns;
  total.governor_hysteresis_skips += add.governor_hysteresis_skips;
  total.governor_rollbacks += add.governor_rollbacks;
  total.governor_routes_rolled_back += add.governor_routes_rolled_back;
  total.governor_cooldown_polls += add.governor_cooldown_polls;
  total.governor_stage_scaledowns += add.governor_stage_scaledowns;
  total.governor_routes_stage_scaled += add.governor_routes_stage_scaled;
  total.governor_stage_withdrawals += add.governor_stage_withdrawals;
  total.governor_routes_stage_withdrawn +=
      add.governor_routes_stage_withdrawn;
  return total;
}

void RiptideAgent::start() {
  if (running_) return;
  running_ = true;
  if (started_once_) ++stats_.restarts;
  started_once_ = true;

  adopt_existing_routes();

  // Governor deltas measure from process start, not from a predecessor's
  // last poll: whatever retransmissions accumulated while this process
  // wasn't running are not evidence about its routes.
  prev_host_retrans_ = host_.total_retransmissions();
  prev_host_packets_ = host_.stats().packets_sent;

  poll_timer_ = sim_.schedule_periodic(config_.update_interval,
                                       config_.update_interval,
                                       [this] { poll_once(); });
}

void RiptideAgent::stop() {
  running_ = false;
  poll_timer_.cancel();
  cancel_pending_ops();
}

void RiptideAgent::crash() {
  poll_timer_.cancel();
  running_ = false;
  cancel_pending_ops();
  // The process is gone: in-memory learned state is lost, but routes it
  // installed remain in the host routing table.
  table_ = ObservedTable{};
  seen_counters_.clear();
  installed_.clear();
  governor_ = SafetyGovernor{config_.governor};
  ++stats_.crashes;
}

void RiptideAgent::restore_table(ObservedTable snapshot,
                                 bool reinstall_routes) {
  if (!reinstall_routes) {
    table_ = std::move(snapshot);
    return;
  }
  // Reinstalling means the host routing table did not survive (reboot):
  // re-age every entry from now so the TTL clock restarts with the
  // process, and program the learned windows back immediately rather
  // than waiting a full learning cycle.
  const sim::Time now = sim_.now();
  table_ = ObservedTable{};
  for (const auto& [destination, state] : snapshot.entries()) {
    const double final_window = clamp_window(state.final_window_segments);
    table_.put(destination,
               DestinationState{final_window, now, state.updates});
    program(destination, static_cast<std::uint32_t>(std::lround(final_window)),
            Audit{});
  }
}

void RiptideAgent::adopt_existing_routes() {
  // A previous incarnation (before a crash) may have left routes behind.
  // Adopt them, aged from now: they stay effective while fresh traffic
  // confirms them, and TTL expiry withdraws them otherwise — without this
  // a stale oversized window would outlive the process that learned it
  // indefinitely.
  const sim::Time now = sim_.now();
  for (const auto& entry : host_.routing_table().entries()) {
    if (entry.prefix.length() == 0) continue;          // default route
    if (entry.metrics.initcwnd_segments == 0) continue;  // not ours
    if (table_.contains(entry.prefix)) continue;       // warm-restored
    table_.store_final(
        entry.prefix,
        clamp_window(static_cast<double>(entry.metrics.initcwnd_segments)),
        now);
    // Adoption transfers ownership: the route is now this process's to
    // reconcile, withdraw, or roll back.
    installed_[entry.prefix] = entry.metrics;
    ++stats_.routes_adopted;
    trace_route(trace::RouteCause::kAdopted, entry.prefix,
                static_cast<double>(entry.metrics.initcwnd_segments));
  }
}

void RiptideAgent::trace_route(trace::RouteCause cause, const net::Prefix& dst,
                               double window) {
  auto* sink = trace::active();
  if (sink == nullptr) return;
  trace::TraceEvent ev;
  ev.at_ns = sim_.now().ns();
  ev.kind = trace::EventKind::kAgentRoute;
  ev.route = {host_.address().value(), dst.address().value(),
              static_cast<std::uint8_t>(dst.length()), cause, window};
  sink->emit(ev);
}

void RiptideAgent::trace_program(trace::ProgramVerdict verdict,
                                 const net::Prefix& dst, double scale,
                                 std::uint32_t initcwnd,
                                 std::uint32_t initrwnd) {
  auto* sink = trace::active();
  if (sink == nullptr) return;
  trace::TraceEvent ev;
  ev.at_ns = sim_.now().ns();
  ev.kind = trace::EventKind::kAgentProgram;
  ev.program = {host_.address().value(), dst.address().value(),
                static_cast<std::uint8_t>(dst.length()), verdict, scale,
                initcwnd, initrwnd};
  sink->emit(ev);
}

void RiptideAgent::trace_governor_state(GovernorState from, GovernorState to,
                                        trace::GovernorCause cause,
                                        double retrans_fraction,
                                        std::uint32_t routes) {
  auto* sink = trace::active();
  if (sink == nullptr) return;
  trace::TraceEvent ev;
  ev.at_ns = sim_.now().ns();
  ev.kind = trace::EventKind::kGovernorState;
  ev.governor = {host_.address().value(), static_cast<std::uint8_t>(from),
                 static_cast<std::uint8_t>(to), cause, retrans_fraction,
                 routes};
  sink->emit(ev);
}

void RiptideAgent::trace_audit(const Audit& audit, const net::Prefix& dst,
                              const host::RouteMetrics& metrics) {
  switch (audit.kind) {
    case Audit::Kind::kNone:
      return;
    case Audit::Kind::kProgram:
      trace_program(audit.verdict, dst, audit.value, metrics.initcwnd_segments,
                    metrics.initrwnd_segments);
      return;
    case Audit::Kind::kRoute:
      trace_route(audit.cause, dst, audit.value);
      return;
  }
}

net::Prefix RiptideAgent::destination_key(net::Ipv4Address peer) const {
  if (config_.granularity == Granularity::kHost) return net::Prefix::host(peer);
  return net::Prefix(peer, config_.prefix_length);
}

double RiptideAgent::clamp_window(double value) const {
  return std::clamp(value, static_cast<double>(config_.c_min),
                    static_cast<double>(config_.c_max));
}

// ------------------------------------------------------------------------
// The one route-write path, with bounded retry.

host::RouteMetrics RiptideAgent::route_metrics(std::uint32_t initcwnd) const {
  return host::RouteMetrics{
      initcwnd, config_.set_initrwnd ? std::max(config_.c_max, initcwnd) : 0,
      config_.route_cc};
}

void RiptideAgent::program(const net::Prefix& dst, std::uint32_t initcwnd,
                           const Audit& audit) {
  const host::RouteMetrics metrics = route_metrics(initcwnd);
  trace_audit(audit, dst, metrics);
  try {
    programmer_->set_initial_windows(dst, metrics.initcwnd_segments,
                                     metrics.initrwnd_segments, metrics.cc);
  } catch (const std::exception&) {
    ++stats_.actuator_failures;
    retry_later(dst, initcwnd, /*clear=*/false);
    return;
  }
  ++stats_.routes_set;
  // Record the cc too: the reconciler compares installed_ against the live
  // table with operator==, so omitting it would read as a per-poll conflict.
  installed_[dst] = metrics;
  if (const auto it = pending_ops_.find(dst); it != pending_ops_.end()) {
    it->second.timer.cancel();
    pending_ops_.erase(it);
  }
}

void RiptideAgent::withdraw(const net::Prefix& dst, const Audit& audit) {
  trace_audit(audit, dst, host::RouteMetrics{});
  try {
    programmer_->clear(dst);
  } catch (const std::exception&) {
    ++stats_.actuator_failures;
    retry_later(dst, 0, /*clear=*/true);
    return;
  }
  installed_.erase(dst);
  if (const auto it = pending_ops_.find(dst); it != pending_ops_.end()) {
    it->second.timer.cancel();
    pending_ops_.erase(it);
  }
}

void RiptideAgent::retry_later(const net::Prefix& dst, std::uint32_t initcwnd,
                               bool clear) {
  auto& op = pending_ops_[dst];
  op.timer.cancel();
  // A newer decision supersedes whatever was pending, but the attempt
  // count carries over: the actuator has been failing for this
  // destination the whole time.
  op.initcwnd = initcwnd;
  op.clear = clear;
  ++op.attempts;
  if (op.attempts > kActuatorMaxRetries) {
    ++stats_.actuator_dead_letters;
    pending_ops_.erase(dst);
    return;
  }
  ++stats_.actuator_retries;
  const int shift = static_cast<int>(std::min<std::uint32_t>(
      op.attempts - 1, 16));  // cap the doubling: backoff stays finite
  const sim::Time backoff = kActuatorBackoff * (std::int64_t{1} << shift);
  op.timer = sim_.schedule(backoff, [this, dst] { retry_pending(dst); });
}

void RiptideAgent::retry_pending(const net::Prefix& dst) {
  const auto it = pending_ops_.find(dst);
  if (it == pending_ops_.end()) return;
  // The retry replays a decision already traced when it was first made.
  if (it->second.clear) {
    withdraw(dst, Audit{});
  } else {
    program(dst, it->second.initcwnd, Audit{});
  }
}

void RiptideAgent::cancel_pending_ops() {
  for (auto& [dst, op] : pending_ops_) op.timer.cancel();
  pending_ops_.clear();
}

// ------------------------------------------------------------------------
// The poll: Algorithm 1 as a sequence of named stages. A stage that ends
// the poll early returns false; the outcome tells the post-poll hook how
// far the poll got.

void RiptideAgent::poll_once() {
  const PollOutcome outcome = poll_once_impl();
  // The hook fires inside the poll's own event callback: nothing can run
  // between the poll body and the check, so oracles see the exact state
  // the poll left behind.
  if (post_poll_hook_) post_poll_hook_(*this, outcome);
}

PollOutcome RiptideAgent::poll_once_impl() {
  PollOutcome outcome;
  ++stats_.polls;
  const sim::Time now = sim_.now();
  if (!governor_gate(now)) return outcome;
  // Reconcile before acting on fresh observations: drift since the last
  // poll is detected and counted here, where the programming below would
  // otherwise silently paper over it.
  if (config_.reconcile_routes) {
    reconcile_route_table();
    outcome.reconciled = true;
  }
  std::vector<host::SocketInfo> snapshot;
  if (!take_snapshot(snapshot)) return outcome;
  outcome.snapshot_ok = true;
  observe(snapshot);
  const auto decisions = decide(now);
  budget();
  actuate(decisions);
  staleness_guard(snapshot, now);
  expire(now);
  outcome.completed = true;
  return outcome;
}

bool RiptideAgent::governor_gate(sim::Time now) {
  if (!governor_.rollback_enabled()) return true;
  // The retransmit deltas are maintained every poll — including cooldown
  // polls — so the first poll after cooldown judges only the cooldown
  // window, not the incident that triggered the rollback.
  const std::uint64_t host_retrans = host_.total_retransmissions();
  const std::uint64_t host_packets = host_.stats().packets_sent;
  const std::uint64_t d_retrans = host_retrans - prev_host_retrans_;
  const std::uint64_t d_packets = host_packets - prev_host_packets_;
  prev_host_retrans_ = host_retrans;
  prev_host_packets_ = host_packets;
  const double fraction = d_packets > 0 ? static_cast<double>(d_retrans) /
                                              static_cast<double>(d_packets)
                                        : 0.0;
  const GovernorState pre = governor_.state();
  if (governor_.in_cooldown(now)) {
    ++stats_.governor_cooldown_polls;
    return false;
  }
  if (pre == GovernorState::kCooldown) {
    // in_cooldown just performed the expiry transition back to normal.
    trace_governor_state(pre, GovernorState::kNormal,
                         trace::GovernorCause::kRecovered, fraction, 0);
  }
  if (!governor_.staged()) {
    if (!governor_.should_rollback(d_retrans, d_packets, now)) return true;
    emergency_rollback(now, fraction);
    return false;
  }
  const GovernorState before = governor_.state();
  switch (governor_.assess(d_retrans, d_packets, now)) {
    case StagedAction::kScaleDown:
      staged_scale_down(before, fraction);
      return false;
    case StagedAction::kSelectiveWithdraw:
      staged_selective_withdraw(before, fraction);
      return false;
    case StagedAction::kRollback:
      emergency_rollback(now, fraction);
      return false;
    case StagedAction::kNone:
      break;
  }
  if (before != governor_.state()) {
    // A healthy window de-escalated the ladder back to normal.
    trace_governor_state(before, governor_.state(),
                         trace::GovernorCause::kRecovered, fraction, 0);
  }
  return true;
}

bool RiptideAgent::take_snapshot(std::vector<host::SocketInfo>& snapshot) {
  // A failed poll is "no information", not "no connections": the caller
  // skips folding *and* expiry — withdrawing routes because the observer
  // glitched would churn windows on healthy paths.
  try {
    snapshot = stats_source_->poll();
  } catch (const PollError&) {
    ++stats_.polls_failed;
    return false;
  }
  return true;
}

void RiptideAgent::observe(const std::vector<host::SocketInfo>& snapshot) {
  // Observations are collected into one flat scratch buffer and stably
  // sorted by destination, so each group is a contiguous run handed to
  // the combiner as a span. The stable sort keeps snapshot order within a
  // destination, which fixes the combiner's float summation order.
  poll_scratch_.clear();
  for (const auto& info : snapshot) {
    if (info.state != tcp::TcpState::kEstablished) continue;
    ++stats_.connections_observed;
    poll_scratch_.push_back(
        {destination_key(info.tuple.remote_addr),
         Observation{static_cast<double>(info.cwnd_segments),
                     info.bytes_acked}});
  }
  std::stable_sort(poll_scratch_.begin(), poll_scratch_.end(),
                   [](const DestObservation& a, const DestObservation& b) {
                     return a.destination < b.destination;
                   });
  poll_observations_.clear();
  poll_observations_.reserve(poll_scratch_.size());
  for (const auto& d : poll_scratch_) poll_observations_.push_back(d.obs);
}

std::vector<std::pair<net::Prefix, double>> RiptideAgent::decide(
    sim::Time now) {
  // Every destination folds before anything is programmed, so the budget
  // can be judged over the whole table.
  std::vector<std::pair<net::Prefix, double>> decisions;
  decisions.reserve(poll_scratch_.size());
  for (std::size_t i = 0; i < poll_scratch_.size();) {
    const net::Prefix destination = poll_scratch_[i].destination;
    std::size_t j = i + 1;
    while (j < poll_scratch_.size() &&
           poll_scratch_[j].destination == destination) {
      ++j;
    }
    const std::span<const Observation> observations(
        poll_observations_.data() + i, j - i);
    i = j;
    const double observed = combiner_->combine(observations);

    const double folded =
        table_.fold(destination, observed, config_.alpha, now);
    const double final_window = clamp_window(folded);
    table_.store_final(destination, final_window, now);
    decisions.emplace_back(destination, final_window);
    ++stats_.destinations_updated;
    if (auto* sink = trace::active()) {
      trace::TraceEvent ev;
      ev.at_ns = now.ns();
      ev.kind = trace::EventKind::kAgentDecision;
      ev.decision = {host_.address().value(),
                     destination.address().value(),
                     static_cast<std::uint8_t>(destination.length()),
                     static_cast<std::uint32_t>(observations.size()),
                     observed,
                     folded,
                     final_window};
      sink->emit(ev);
    }
  }
  return decisions;
}

void RiptideAgent::budget() {
  // One answer per poll: the scale every installed window shrinks by. The
  // table keeps the unscaled learned values — the budget caps what is
  // *installed*, not what is known.
  budget_scale_ = 1.0;
  if (config_.governor.budget_segments == 0) return;
  double total = 0.0;
  for (const auto& [destination, state] : table_.entries()) {
    total += state.final_window_segments;
  }
  budget_scale_ = governor_.budget_scale(total);
  if (budget_scale_ < 1.0) ++stats_.governor_budget_scaledowns;
}

std::uint32_t RiptideAgent::budget_cap(double final_window) const {
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(final_window * budget_scale_)));
}

void RiptideAgent::actuate(
    const std::vector<std::pair<net::Prefix, double>>& decisions) {
  // A budget scale binds every window this poll; the trace shows it as the
  // scale.
  const bool budget_bound = budget_scale_ < 1.0;
  for (const auto& [destination, final_window] : decisions) {
    auto initcwnd = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::lround(final_window)));
    if (budget_bound) initcwnd = std::min(initcwnd, budget_cap(final_window));
    // Hysteresis damps churn, never a shrink the budget demands.
    if (const auto it = installed_.find(destination);
        it != installed_.end() &&
        governor_.within_hysteresis(it->second.initcwnd_segments, initcwnd) &&
        !(budget_bound && initcwnd < it->second.initcwnd_segments)) {
      ++stats_.governor_hysteresis_skips;
      trace_program(trace::ProgramVerdict::kHysteresisSkip, destination,
                    budget_scale_, initcwnd,
                    route_metrics(initcwnd).initrwnd_segments);
      continue;
    }
    program(destination, initcwnd,
            Audit::program(trace::ProgramVerdict::kProgrammed, budget_scale_));
  }
  budget_sweep();
}

void RiptideAgent::budget_sweep() {
  if (budget_scale_ >= 1.0) return;
  // The budget is host-wide: routes installed by earlier polls, whose
  // destinations saw no fresh samples this poll, are shrunk by the same
  // scale — the decisions never visit them, so without this sweep the
  // installed sum could stay over budget indefinitely. Shrinking to budget
  // is a safety action, not churn, so hysteresis does not apply. Collect
  // first: the writes mutate installed_.
  sweep_.clear();
  for (const auto& [destination, metrics] : installed_) {
    const DestinationState* state = table_.find(destination);
    if (state == nullptr) continue;  // not in the table: expiry withdraws it
    const std::uint32_t cap = budget_cap(state->final_window_segments);
    if (cap < metrics.initcwnd_segments) sweep_.emplace_back(destination, cap);
  }
  for (const auto& [destination, cap] : sweep_) {
    program(destination, cap,
            Audit::program(trace::ProgramVerdict::kBudgetShrink,
                           budget_scale_));
  }
}

// §V hardening: destinations retransmitting heavily under a learned window
// get decayed or withdrawn, even if their current cwnds still look healthy
// (the damage shows in loss recovery before it shows in the window
// average).
void RiptideAgent::staleness_guard(
    const std::vector<host::SocketInfo>& snapshot, sim::Time now) {
  if (!config_.staleness_guard) return;
  for (const auto& [dst, delta] : retransmit_deltas(snapshot)) {
    const auto& [d_retrans, d_sent] = delta;
    if (d_sent < kStalenessMinSegments) continue;
    if (static_cast<double>(d_retrans) <
        kStalenessRetransFraction * static_cast<double>(d_sent)) {
      continue;
    }
    const DestinationState* state = table_.find(dst);
    if (state == nullptr) continue;
    const double decayed = state->final_window_segments * kStalenessDecay;
    if (decayed <= static_cast<double>(config_.c_min)) {
      // The learned window has decayed to the floor and the path is still
      // hurting: withdraw outright, restoring the default initial window.
      table_.erase(dst);
      withdraw(dst, Audit::route(trace::RouteCause::kStalenessWithdraw));
      ++stats_.staleness_withdrawals;
    } else {
      table_.store_final(dst, decayed, now);
      program(dst, static_cast<std::uint32_t>(std::lround(decayed)),
              Audit::route(trace::RouteCause::kStalenessDecay, decayed));
      ++stats_.staleness_decays;
    }
  }
}

std::map<net::Prefix, std::pair<std::uint64_t, std::uint64_t>>
RiptideAgent::retransmit_deltas(
    const std::vector<host::SocketInfo>& snapshot) {
  std::map<net::Prefix, std::pair<std::uint64_t, std::uint64_t>> deltas;
  for (auto& [tuple, counters] : seen_counters_) {
    counters.seen_this_poll = false;
  }
  for (const auto& info : snapshot) {
    if (info.state != tcp::TcpState::kEstablished) continue;
    auto& prev = seen_counters_[info.tuple];
    // Counters are cumulative per connection; a tuple reappearing with
    // smaller values is a new connection reusing the tuple.
    const std::uint64_t d_retrans =
        info.retransmissions >= prev.retransmissions
            ? info.retransmissions - prev.retransmissions
            : info.retransmissions;
    const std::uint64_t d_sent = info.segments_sent >= prev.segments_sent
                                     ? info.segments_sent - prev.segments_sent
                                     : info.segments_sent;
    prev = SeenCounters{info.retransmissions, info.segments_sent, true};
    auto& slot = deltas[destination_key(info.tuple.remote_addr)];
    slot.first += d_retrans;
    slot.second += d_sent;
  }
  std::erase_if(seen_counters_,
                [](const auto& kv) { return !kv.second.seen_this_poll; });
  return deltas;
}

void RiptideAgent::expire(sim::Time now) {
  // Destinations unseen for `ttl` lose their routes, restoring the default
  // initial window.
  for (const auto& destination : table_.expire(now, config_.ttl)) {
    withdraw(destination, Audit::route(trace::RouteCause::kExpired));
    ++stats_.routes_expired;
  }
}

// ------------------------------------------------------------------------
// Governor actions and reconciliation.

void RiptideAgent::staged_scale_down(GovernorState from,
                                     double retrans_fraction) {
  // Stage 1: keep every route but halve what it may burst. The learned
  // table keeps the unscaled values: a healthy window next poll reprograms
  // them at full size. Collect first — the writes mutate installed_.
  sweep_.clear();
  for (const auto& [destination, metrics] : installed_) {
    const auto target = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::lround(metrics.initcwnd_segments * kStageScaleFactor)));
    if (target < metrics.initcwnd_segments) {
      sweep_.emplace_back(destination, target);
    }
  }
  for (const auto& [destination, initcwnd] : sweep_) {
    program(destination, initcwnd,
            Audit::program(trace::ProgramVerdict::kStageScaleDown,
                           kStageScaleFactor));
  }
  ++stats_.governor_stage_scaledowns;
  stats_.governor_routes_stage_scaled += sweep_.size();
  trace_governor_state(from, governor_.state(),
                       trace::GovernorCause::kThreshold, retrans_fraction,
                       static_cast<std::uint32_t>(sweep_.size()));
}

void RiptideAgent::staged_selective_withdraw(GovernorState from,
                                             double retrans_fraction) {
  // Stage 2: the scale-down was not enough — withdraw the newest half of
  // the installed routes entirely (their learned entries too, so the next
  // poll re-learns instead of instantly reprogramming the same window).
  // Newest first: fresh routes are both the least proven and the likeliest
  // cause of a synchronized burst.
  struct Candidate {
    net::Prefix destination;
    std::uint64_t updates;
    sim::Time last_updated;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(installed_.size());
  for (const auto& [destination, metrics] : installed_) {
    const DestinationState* state = table_.find(destination);
    candidates.push_back({destination, state != nullptr ? state->updates : 0,
                          state != nullptr ? state->last_updated
                                           : sim::Time::zero()});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.updates != b.updates) return a.updates < b.updates;
              if (a.last_updated != b.last_updated) {
                return a.last_updated > b.last_updated;
              }
              return net::PrefixOrder{}(a.destination, b.destination);
            });
  const auto count = std::min<std::size_t>(
      candidates.size(),
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(candidates.size()) *
                    kStageWithdrawFraction)));
  for (std::size_t i = 0; i < count; ++i) {
    const net::Prefix destination = candidates[i].destination;
    table_.erase(destination);
    withdraw(destination, Audit::route(trace::RouteCause::kStageWithdraw));
  }
  ++stats_.governor_stage_withdrawals;
  stats_.governor_routes_stage_withdrawn += count;
  trace_governor_state(from, governor_.state(),
                       trace::GovernorCause::kThreshold, retrans_fraction,
                       static_cast<std::uint32_t>(count));
}

void RiptideAgent::emergency_rollback(sim::Time now,
                                      double retrans_fraction) {
  // Withdraw everything this process knows about or may yet act on:
  // learned entries, routes believed installed (the sets differ after
  // adoption, expiry races, or partial failures), and destinations with
  // in-flight retries. Clearing an absent route is a no-op at the host,
  // so the union is safe to sweep.
  std::vector<net::Prefix> targets;
  for (const auto& [destination, state] : table_.entries()) {
    targets.push_back(destination);
  }
  for (const auto& [destination, metrics] : installed_) {
    targets.push_back(destination);
  }
  for (const auto& [destination, op] : pending_ops_) {
    targets.push_back(destination);
  }
  std::sort(targets.begin(), targets.end(), net::PrefixOrder{});
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (const auto& destination : targets) {
    withdraw(destination, Audit::route(trace::RouteCause::kRollback));
  }

  if (auto* sink = trace::active()) {
    trace::TraceEvent ev;
    ev.at_ns = now.ns();
    ev.kind = trace::EventKind::kAgentRollback;
    ev.rollback = {host_.address().value(),
                   static_cast<std::uint32_t>(targets.size())};
    sink->emit(ev);
  }

  stats_.governor_routes_rolled_back += targets.size();
  ++stats_.governor_rollbacks;
  table_ = ObservedTable{};
  seen_counters_.clear();
  const GovernorState from = governor_.state();
  governor_.arm_cooldown(now);
  trace_governor_state(from, GovernorState::kCooldown,
                       trace::GovernorCause::kThreshold, retrans_fraction,
                       static_cast<std::uint32_t>(targets.size()));
}

void RiptideAgent::reconcile_route_table() {
  // Pass 1: live learned-looking routes vs what we installed. Iterates a
  // snapshot of the table so repairs/withdrawals don't perturb the walk.
  for (const auto& entry : host_.routing_table().learned_routes()) {
    // A pending retry already carries the newest decision for this
    // destination; reconciling underneath it would race the retry timer.
    if (pending_ops_.contains(entry.prefix)) continue;
    const auto it = installed_.find(entry.prefix);
    if (it == installed_.end()) {
      // Not ours. If the table wants this destination, the next poll will
      // program it properly; otherwise it is an orphan — a learned-looking
      // route no running process owns — and stale windows must not
      // outlive their owner.
      if (table_.contains(entry.prefix)) continue;
      ++stats_.reconcile_orphaned;
      withdraw(entry.prefix,
               Audit::route(trace::RouteCause::kReconcileOrphan));
      continue;
    }
    if (entry.metrics != it->second) {
      // Mangled in place (e.g. an operator's `ip route replace` fat
      // finger): reassert what we installed.
      ++stats_.reconcile_conflicting;
      ++stats_.reconcile_repaired;
      const std::uint32_t initcwnd = it->second.initcwnd_segments;
      program(entry.prefix, initcwnd,
              Audit::route(trace::RouteCause::kReconcileConflict,
                           static_cast<double>(initcwnd)));
    }
  }

  // Pass 2: routes we installed that vanished from the live table
  // (externally deleted). Collect first: the writes mutate installed_.
  sweep_.clear();
  for (const auto& [destination, metrics] : installed_) {
    if (pending_ops_.contains(destination)) continue;
    if (host_.routing_table().find_route(destination) == nullptr) {
      sweep_.emplace_back(destination, metrics.initcwnd_segments);
    }
  }
  for (const auto& [destination, initcwnd] : sweep_) {
    ++stats_.reconcile_repaired;
    program(destination, initcwnd,
            Audit::route(trace::RouteCause::kReconcileRepair,
                         static_cast<double>(initcwnd)));
  }
}

}  // namespace riptide::core
