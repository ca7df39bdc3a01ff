#pragma once

#include <cstdint>

#include "core/governor.h"
#include "sim/time.h"
#include "tcp/config.h"

namespace riptide::core {

// How per-destination observations are collapsed into one window value
// (paper §III-B "Combination Algorithm").
enum class CombinerKind {
  kAverage,          // paper default: mean of current windows
  kMax,              // aggressive: the most the path has carried
  kTrafficWeighted,  // conservative: weight windows by bytes transferred
};

// The granularity at which destinations are grouped and routes installed
// (paper §III-B "Destinations as Routes").
enum class Granularity {
  kHost,    // one /32 route per destination host
  kPrefix,  // one route per prefix (e.g. per PoP)
};

// Riptide's tunable parameters — Table I of the paper, plus the §III
// design-variation knobs.
struct RiptideConfig {
  // Weight applied to the *historical* value in the moving average; 1-alpha
  // goes to the newest observation. alpha = 0 disables history.
  double alpha = 0.5;

  // i_u: how often open-connection windows are polled. The paper's
  // evaluation uses 1 second.
  sim::Time update_interval = sim::Time::seconds(1);

  // t: entry time-to-live. With no fresh observations for this long, the
  // entry and its route are removed, restoring the default IW10. The
  // paper's deployment uses 90 s.
  sim::Time ttl = sim::Time::seconds(90);

  // c_max / c_min: clamp on the programmed window, in segments. The paper
  // settles on c_max = 100 (Fig 10 knee) and floors at the default of 10.
  std::uint32_t c_max = 100;
  std::uint32_t c_min = 10;

  CombinerKind combiner = CombinerKind::kAverage;

  Granularity granularity = Granularity::kHost;
  // Mask length for kPrefix grouping (e.g. 16 to treat a whole PoP as one
  // destination).
  int prefix_length = 16;

  // Also raise initrwnd on programmed routes so the peer's Riptide-sized
  // bursts fit in our advertised window (§III-C). The value installed is
  // max(c_max, programmed initcwnd).
  bool set_initrwnd = true;

  // Congestion-control regime stamped onto every route the agent programs
  // (consumed by connections at connect time, exactly like the windows).
  // kUnset — the default — leaves the host-wide TcpConfig in force, so the
  // agent's routes carry no CC opinion unless a policy asks for one.
  tcp::RouteCc route_cc = tcp::RouteCc::kUnset;

  // §V "Additional Algorithms": trend guard. A sharp fall of the combined
  // observation relative to the stored value — more than
  // `trend_drop_fraction` in one poll — signals a network incident; rather
  // than letting the EWMA glide down over many intervals, the learned
  // window is reset to c_min immediately ("aggressively decrease the
  // initial windows, beyond what is happening to existing connections").
  bool trend_guard = false;
  double trend_drop_fraction = 0.5;

  // ------------------------------------------------------------------
  // Hardening knobs (robustness under network and actuator failures).
  // Defaults are chosen so a fault-free run behaves bit-identically to an
  // agent without any of this machinery: the retry path only activates on
  // actuator failures, and the staleness guard defaults off. (A crashed
  // predecessor's leftover routes are always adopted at start(); a fresh
  // host has none.)
  // ------------------------------------------------------------------

  // Actuator retry: a failed set_initial_windows/clear is retried with
  // exponential backoff (actuator_backoff, doubling per attempt) up to
  // actuator_max_retries times; ops still failing after that are dropped
  // and counted as dead letters. A later successful poll for the same
  // destination cancels the pending retry (the fresh value supersedes it).
  std::uint32_t actuator_max_retries = 4;
  sim::Time actuator_backoff = sim::Time::milliseconds(100);

  // Staleness guard: a destination whose connections show an elevated
  // retransmit rate while a learned window is installed is on a path that
  // no longer supports that window (path change, loss burst). Each poll
  // where retrans/segments-sent exceeds `staleness_retrans_fraction`
  // (judged only once at least `staleness_min_segments` segments were
  // sent since the previous poll), the learned window is decayed by
  // `staleness_decay`; at or below c_min the route is withdrawn outright,
  // restoring the default initial window.
  bool staleness_guard = false;
  double staleness_retrans_fraction = 0.2;
  std::uint32_t staleness_min_segments = 20;
  double staleness_decay = 0.5;

  // ------------------------------------------------------------------
  // Durable state and the safety governor. Same contract as the knobs
  // above: every default is "off", and an off-knob run is bit-identical
  // to an agent that doesn't have the machinery at all.
  // ------------------------------------------------------------------

  // How often the fault harness copies the agent's learned table into the
  // checkpoint a warm restart restores. Zero takes no periodic copies: a
  // warm restart then restores the table as it was at the crash.
  sim::Time checkpoint_interval = sim::Time::zero();

  // Each poll, diff the host routing table against what this agent
  // believes it installed: repair routes an outside actor deleted or
  // mangled, withdraw learned-looking routes nobody owns.
  bool reconcile_routes = false;

  // The safety governor: host-wide initcwnd budget, route-churn
  // hysteresis, and the emergency brake (all-or-nothing rollback or the
  // staged ladder, with rollback-storm backoff). See GovernorConfig for
  // each knob; every default is off.
  GovernorConfig governor{};

  // Test-only fault hook: silently skip the governor's budget enforcement
  // (both the proportional scale-down and the shed-newest admission pass)
  // while leaving the budget configured. Exists so the chaos-search suite
  // (src/chaos) can prove its budget oracle actually detects a governor
  // whose enforcement regressed; never set outside tests.
  bool test_skip_budget_enforcement = false;
};

}  // namespace riptide::core
