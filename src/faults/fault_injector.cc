#include "faults/fault_injector.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/sink.h"

namespace riptide::faults {

namespace {

// One `fault` trace record per plan-event application (or burst-window
// restore). The label is the static to_string(FaultKind) literal, so the
// ring entry stays trivially copyable.
void trace_fault(sim::Simulator& sim, const FaultEvent& ev, bool restored) {
  auto* sink = trace::active();
  if (sink == nullptr) return;
  trace::TraceEvent out;
  out.at_ns = sim.now().ns();
  out.kind = trace::EventKind::kFault;
  out.fault = {to_string(ev.kind),
               static_cast<std::uint8_t>(restored ? 1 : 0),
               static_cast<std::uint32_t>(ev.pop_a),
               static_cast<std::uint32_t>(ev.pop_b),
               ev.host_index,
               ev.value,
               ev.duration.ns()};
  sink->emit(out);
}

}  // namespace

void FaultInjector::validate(const FaultEvent& ev) const {
  const std::size_t n = topology_.pop_count();
  switch (ev.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kLinkFlap:
    case FaultKind::kLossBurst:
    case FaultKind::kRateChange:
    case FaultKind::kDelayChange:
      if (ev.pop_a >= n || ev.pop_b >= n || ev.pop_a == ev.pop_b) {
        throw std::invalid_argument(
            std::string("FaultInjector: event '") + to_string(ev.kind) +
            "' names bad PoP pair " + std::to_string(ev.pop_a) + "-" +
            std::to_string(ev.pop_b));
      }
      if (ev.kind == FaultKind::kLinkFlap && ev.count < 1) {
        throw std::invalid_argument("FaultInjector: flap needs >= 1 transition");
      }
      break;
    case FaultKind::kAgentCrash:
    case FaultKind::kSnapshotCorrupt:
    case FaultKind::kRouteDrift:
      if (ev.host_index >= static_cast<int>(hooks_.size())) {
        throw std::invalid_argument(
            std::string("FaultInjector: '") + to_string(ev.kind) +
            "' host index " + std::to_string(ev.host_index) +
            " out of range (have " + std::to_string(hooks_.size()) +
            " agents)");
      }
      if (ev.kind == FaultKind::kRouteDrift &&
          (ev.value < 0.0 || ev.value > 1.0 || ev.value2 < 0.0 ||
           ev.value2 > 1.0)) {
        throw std::invalid_argument(
            "FaultInjector: route-drift fractions outside [0, 1]");
      }
      break;
    case FaultKind::kActuatorFail:
    case FaultKind::kPollFail:
    case FaultKind::kPollPartial:
      break;
  }
  if (ev.value < 0.0) {
    throw std::invalid_argument("FaultInjector: negative event value");
  }
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector::arm called twice");
  armed_ = true;
  for (const FaultEvent& ev : plan_.events()) validate(ev);
  for (const FaultEvent& ev : plan_.events()) {
    sim_.schedule_at(ev.at, [this, ev] {
      ++stats_.events_fired;
      trace_fault(sim_, ev, /*restored=*/false);
      apply(ev);
    });
  }
}

void FaultInjector::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kLinkDown:
      set_pair_up(ev.pop_a, ev.pop_b, false);
      break;
    case FaultKind::kLinkUp:
      set_pair_up(ev.pop_a, ev.pop_b, true);
      break;
    case FaultKind::kLinkFlap:
      // apply() fires at each transition time; leg 0 is the initial down.
      set_pair_up(ev.pop_a, ev.pop_b, false);
      for (int leg = 1; leg < ev.count; ++leg) {
        const bool up = (leg % 2) == 1;
        sim_.schedule(ev.duration * leg, [this, ev, up] {
          ++stats_.events_fired;
          trace_fault(sim_, ev, /*restored=*/up);
          set_pair_up(ev.pop_a, ev.pop_b, up);
        });
      }
      break;
    case FaultKind::kLossBurst:
      apply_loss_burst(ev);
      break;
    case FaultKind::kRateChange:
      apply_rate_change(ev);
      break;
    case FaultKind::kDelayChange:
      apply_delay_change(ev);
      break;
    case FaultKind::kActuatorFail:
      apply_actuator_window(ev);
      break;
    case FaultKind::kPollFail:
    case FaultKind::kPollPartial:
      apply_poll_window(ev);
      break;
    case FaultKind::kAgentCrash:
      apply_crash(ev);
      break;
    case FaultKind::kSnapshotCorrupt:
      apply_snapshot_corrupt(ev);
      break;
    case FaultKind::kRouteDrift:
      apply_route_drift(ev);
      break;
  }
}

void FaultInjector::set_pair_up(std::size_t a, std::size_t b, bool up) {
  topology_.wan_link(a, b).set_up(up);
  topology_.wan_link(b, a).set_up(up);
  ++stats_.link_transitions;
}

void FaultInjector::apply_loss_burst(const FaultEvent& ev) {
  net::Link& ab = topology_.wan_link(ev.pop_a, ev.pop_b);
  net::Link& ba = topology_.wan_link(ev.pop_b, ev.pop_a);
  const double prev_ab = ab.config().loss_probability;
  const double prev_ba = ba.config().loss_probability;
  ab.set_loss_probability(ev.value);
  ba.set_loss_probability(ev.value);
  ++stats_.bursts_applied;
  sim_.schedule(ev.duration, [this, ev, &ab, &ba, prev_ab, prev_ba] {
    ab.set_loss_probability(prev_ab);
    ba.set_loss_probability(prev_ba);
    ++stats_.bursts_restored;
    trace_fault(sim_, ev, /*restored=*/true);
  });
}

void FaultInjector::apply_rate_change(const FaultEvent& ev) {
  net::Link& ab = topology_.wan_link(ev.pop_a, ev.pop_b);
  net::Link& ba = topology_.wan_link(ev.pop_b, ev.pop_a);
  const double prev_ab = ab.config().rate_bps;
  const double prev_ba = ba.config().rate_bps;
  ab.set_rate_bps(prev_ab * ev.value);
  ba.set_rate_bps(prev_ba * ev.value);
  ++stats_.bursts_applied;
  sim_.schedule(ev.duration, [this, ev, &ab, &ba, prev_ab, prev_ba] {
    ab.set_rate_bps(prev_ab);
    ba.set_rate_bps(prev_ba);
    ++stats_.bursts_restored;
    trace_fault(sim_, ev, /*restored=*/true);
  });
}

void FaultInjector::apply_delay_change(const FaultEvent& ev) {
  net::Link& ab = topology_.wan_link(ev.pop_a, ev.pop_b);
  net::Link& ba = topology_.wan_link(ev.pop_b, ev.pop_a);
  const sim::Time prev_ab = ab.config().propagation_delay;
  const sim::Time prev_ba = ba.config().propagation_delay;
  const sim::Time extra = sim::Time::from_seconds(ev.value / 1000.0);
  ab.set_propagation_delay(prev_ab + extra);
  ba.set_propagation_delay(prev_ba + extra);
  ++stats_.bursts_applied;
  sim_.schedule(ev.duration, [this, ev, &ab, &ba, prev_ab, prev_ba] {
    ab.set_propagation_delay(prev_ab);
    ba.set_propagation_delay(prev_ba);
    ++stats_.bursts_restored;
    trace_fault(sim_, ev, /*restored=*/true);
  });
}

void FaultInjector::apply_actuator_window(const FaultEvent& ev) {
  ++stats_.actuator_windows;
  for (const AgentHooks& hooks : hooks_) {
    FaultyRouteProgrammer* actuator = hooks.actuator;
    if (actuator == nullptr) continue;
    const double prev = actuator->failure_probability();
    actuator->set_failure_probability(ev.value);
    sim_.schedule(ev.duration,
                  [actuator, prev] { actuator->set_failure_probability(prev); });
  }
}

void FaultInjector::apply_poll_window(const FaultEvent& ev) {
  ++stats_.poll_windows;
  const bool partial = ev.kind == FaultKind::kPollPartial;
  for (const AgentHooks& hooks : hooks_) {
    FaultySocketStatsSource* source = hooks.stats_source;
    if (source == nullptr) continue;
    if (partial) {
      const double prev = source->partial_fraction();
      source->set_partial_fraction(ev.value);
      sim_.schedule(ev.duration,
                    [source, prev] { source->set_partial_fraction(prev); });
    } else {
      const double prev = source->failure_probability();
      source->set_failure_probability(ev.value);
      sim_.schedule(ev.duration,
                    [source, prev] { source->set_failure_probability(prev); });
    }
  }
}

void FaultInjector::apply_crash(const FaultEvent& ev) {
  for_targets(ev, [&](const AgentHooks& hooks) {
    crash_one(hooks, ev.duration, ev.warm, ev.flush_routes);
  });
}

void FaultInjector::crash_one(AgentHooks hooks, sim::Time downtime, bool warm,
                              bool flush_routes) {
  core::RiptideAgent* agent = hooks.agent;
  if (agent == nullptr || !agent->running()) return;
  persist::AgentCheckpointer* checkpointer = hooks.checkpointer;
  // Warm restart restores persisted state. With a real checkpointer the
  // restore goes through the snapshot store and decoder — torn or
  // corrupted snapshots included; without one, fall back to modeling a
  // perfect checkpoint with an in-memory copy taken at crash time.
  core::ObservedTable memory_snapshot;
  if (warm && checkpointer == nullptr) {
    memory_snapshot = agent->snapshot_table();
  }
  agent->crash();
  ++stats_.crashes_injected;
  if (flush_routes) {
    // The host rebooted, not just the process: learned routes are gone
    // too, which is exactly the window Riptide's jump-start exists for.
    host::RoutingTable& routes = agent->host().routing_table();
    for (const auto& entry : routes.learned_routes()) {
      routes.remove(entry.prefix);
      ++stats_.routes_flushed;
    }
  }
  ++stats_.restarts_scheduled;
  sim_.schedule(downtime, [this, agent, checkpointer, warm, flush_routes,
                           memory_snapshot = std::move(memory_snapshot)] {
    if (warm) {
      if (checkpointer != nullptr) {
        // Restore provenance (the agent-restore trace record) is emitted
        // by the checkpointer, which knows the generation it used.
        checkpointer->restore(/*reinstall_routes=*/flush_routes);
      } else {
        agent->restore_table(memory_snapshot,
                             /*reinstall_routes=*/flush_routes);
        if (auto* sink = trace::active()) {
          trace::TraceEvent out;
          out.at_ns = sim_.now().ns();
          out.kind = trace::EventKind::kAgentRestore;
          out.restore = {agent->host().address().value(),
                         /*from_checkpoint=*/0,
                         static_cast<std::uint8_t>(flush_routes ? 1 : 0),
                         static_cast<std::uint32_t>(memory_snapshot.size()),
                         /*generation=*/0,
                         /*rejected=*/0};
          sink->emit(out);
        }
      }
    }
    agent->start();
  });
}

void FaultInjector::apply_snapshot_corrupt(const FaultEvent& ev) {
  const auto offset = static_cast<std::size_t>(ev.value);
  for_targets(ev, [&](const AgentHooks& hooks) {
    if (hooks.checkpointer == nullptr) return;
    if (hooks.checkpointer->store().corrupt_newest(offset)) {
      ++stats_.snapshots_corrupted;
    }
  });
}

void FaultInjector::apply_route_drift(const FaultEvent& ev) {
  for_targets(ev, [&](const AgentHooks& hooks) {
    if (hooks.agent == nullptr) return;
    host::RoutingTable& routes = hooks.agent->host().routing_table();
    const auto learned = routes.learned_routes();
    const auto total = learned.size();
    const auto to_delete = static_cast<std::size_t>(
        std::llround(ev.value * static_cast<double>(total)));
    const auto to_mangle = static_cast<std::size_t>(
        std::llround(ev.value2 * static_cast<double>(total)));
    // learned_routes() is in PrefixOrder, so which routes get hit is a
    // pure function of (plan, state) — no RNG consumed.
    std::size_t i = 0;
    for (; i < to_delete && i < total; ++i) {
      routes.remove(learned[i].prefix);
      ++stats_.routes_dropped;
    }
    for (std::size_t m = 0; m < to_mangle && i < total; ++m, ++i) {
      const host::RouteEntry& entry = learned[i];
      routes.add_or_replace(
          entry.prefix, host::RouteMetrics{1, entry.metrics.initrwnd_segments});
      ++stats_.routes_mangled;
    }
  });
}

}  // namespace riptide::faults
