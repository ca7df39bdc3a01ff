#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "net/link.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace riptide::flow {

// Parameters of the fluid cross-traffic aggregate attached to one link.
// Defaults give a moderately-loaded 10G WAN segment: ~60% utilization from
// heavy-tailed mice/elephant mix, leaving visible-but-not-crushing
// congestion for the packet-level probe flows sharing the pipe.
struct FlowTrafficConfig {
  // Poisson arrival rate of background flows on the link.
  double flows_per_second = 100.0;
  // Mean flow size. With pareto_alpha > 1 sizes are bounded-Pareto with
  // this mean; with pareto_alpha == 0 they are exponential.
  double mean_flow_bytes = 250e3;
  double pareto_alpha = 1.5;
  // Per-flow rate cap (sender access bandwidth); the aggregate is the sum
  // of per-flow rates under processor sharing, so a handful of flows
  // cannot instantly saturate a fat WAN pipe.
  double per_flow_access_bps = 200e6;
  // Hard cap on the fraction of link capacity the fluid aggregate may
  // occupy, so packet-level traffic always retains some residual rate
  // above the Link-enforced 1% floor.
  double max_utilization = 0.85;
  // Queue occupancy imputed to the aggregate: this fraction of the link's
  // buffer, scaled by instantaneous utilization.
  double queue_fill_fraction = 0.5;
};

// Flow-level (fluid) model of background cross-traffic on one WAN link —
// "hybrid fidelity": probes stay packet-level, cross traffic does not.
// Instead of simulating every data packet of bulk transfers (~40 events
// per flow for connection setup, data, ACK clocking, teardown), each
// background flow is two events: a Poisson arrival and a completion
// computed from a processor-sharing service model. Between events the
// aggregate is a fluid occupying `offered_bps()` of the link, pushed into
// the packet-level world via net::Link::set_background_load — probe flows
// then experience the congestion through the link's ordinary residual-rate
// serialization and residual-buffer drop-tail paths.
//
// Service model: the n active flows share min(n * per_flow_access_bps,
// max_utilization * capacity) equally (egalitarian processor sharing).
// Completions are tracked in virtual service time: A(t) is the cumulative
// per-flow attained service; a flow arriving at time t_a with size S
// completes when A reaches A(t_a) + S. Because PS serves all flows at the
// same rate, completion order is exactly ascending target order — a
// min-heap of targets and one rearmable timer give O(log n) per flow.
//
// Determinism: all draws come from the Rng passed at construction and all
// events run on the Simulator passed at construction, so the model is part
// of that simulator's deterministic event stream.
class FlowLevelLoad {
 public:
  // `link` must outlive this object. `rng` is borrowed.
  FlowLevelLoad(sim::Simulator& sim, net::Link& link,
                FlowTrafficConfig config, sim::Rng& rng);

  // Schedules the first arrival. Call once, before the run starts.
  void start();

  std::uint64_t flows_started() const { return flows_started_; }
  std::uint64_t flows_completed() const { return flows_completed_; }
  std::size_t active_flows() const { return targets_.size(); }
  // Current fluid offered load, as applied to the link.
  double offered_bps() const { return offered_bps_; }

 private:
  void on_arrival();
  void on_completion();
  double draw_flow_bytes();
  // Brings A(t) forward to now at the pre-change per-flow rate. Must run
  // before any event that changes the active set.
  void advance_virtual_time();
  // Recomputes the shared rate and pushes the new load onto the link.
  void apply_load();
  // Rearms the completion timer for the earliest target (if any).
  void arm_completion_timer();

  sim::Simulator& sim_;
  net::Link& link_;
  FlowTrafficConfig config_;
  sim::Rng& rng_;

  // Virtual service state.
  double attained_bytes_ = 0.0;      // A(t), per-flow attained service
  double per_flow_bps_ = 0.0;        // dA/dt * 8, current equal-share rate
  sim::Time last_advance_;           // when A was last brought forward
  std::priority_queue<double, std::vector<double>, std::greater<>> targets_;

  double offered_bps_ = 0.0;
  sim::EventHandle completion_timer_;
  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
};

}  // namespace riptide::flow
