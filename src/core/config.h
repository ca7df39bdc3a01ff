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

  // ------------------------------------------------------------------
  // Hardening (robustness under network and actuator failures). A
  // fault-free run behaves bit-identically to an agent without any of
  // this machinery: the actuator retry path (a failed route program or
  // clear is retried after 100 ms, doubling per attempt, and dropped as a
  // dead letter after 4 retries; a later successful write for the same
  // destination cancels it) only activates on actuator failures, and the
  // staleness guard defaults off. (A crashed predecessor's leftover routes
  // are always adopted at start(); a fresh host has none.)
  // ------------------------------------------------------------------

  // Staleness guard: a destination whose connections show an elevated
  // retransmit rate while a learned window is installed is on a path that
  // no longer supports that window (path change, loss burst). Each poll
  // where retransmits exceed 20% of the segments sent since the previous
  // poll (judged once at least 20 were sent), the learned window halves;
  // at or below c_min the route is withdrawn outright, restoring the
  // default initial window.
  bool staleness_guard = false;

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
  // staged ladder). See GovernorConfig for each knob; every default is
  // off.
  GovernorConfig governor{};
};

}  // namespace riptide::core
