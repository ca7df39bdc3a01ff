#include "flow/flow_traffic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/perf.h"

namespace riptide::flow {

namespace {

// Per-flow rate cap (sender access bandwidth); the aggregate is the sum of
// per-flow rates under processor sharing, so a handful of flows cannot
// instantly saturate a fat WAN pipe.
constexpr double kPerFlowAccessBps = 200e6;
// Queue occupancy imputed to the aggregate: this fraction of the link's
// buffer, scaled by instantaneous utilization.
constexpr double kQueueFillFraction = 0.5;

}  // namespace

FlowLevelLoad::FlowLevelLoad(sim::Simulator& sim, net::Link& link,
                             FlowTrafficConfig config, sim::Rng& rng)
    : sim_(sim), link_(link), config_(config), rng_(rng) {
  if (config_.flows_per_second <= 0.0) {
    throw std::invalid_argument("FlowLevelLoad: flows_per_second must be > 0");
  }
  if (config_.mean_flow_bytes <= 0.0) {
    throw std::invalid_argument("FlowLevelLoad: mean_flow_bytes must be > 0");
  }
  if (config_.pareto_alpha != 0.0 && config_.pareto_alpha <= 1.0) {
    // alpha <= 1 has no finite mean, so mean_flow_bytes would be
    // meaningless as a calibration knob.
    throw std::invalid_argument("FlowLevelLoad: pareto_alpha must be > 1");
  }
}

void FlowLevelLoad::start() {
  last_advance_ = sim_.now();
  sim_.schedule(
      sim::Time::from_seconds(
          rng_.exponential(1.0 / config_.flows_per_second)),
      [this] { on_arrival(); });
}

double FlowLevelLoad::draw_flow_bytes() {
  if (config_.pareto_alpha == 0.0) {
    return std::max(1.0, rng_.exponential(config_.mean_flow_bytes));
  }
  // Pareto(x_m, alpha) has mean x_m * alpha / (alpha - 1); pick x_m so the
  // configured mean holds.
  const double alpha = config_.pareto_alpha;
  const double x_m = config_.mean_flow_bytes * (alpha - 1.0) / alpha;
  return std::max(1.0, rng_.pareto(x_m, alpha));
}

void FlowLevelLoad::advance_virtual_time() {
  const sim::Time now = sim_.now();
  if (now > last_advance_ && per_flow_bps_ > 0.0) {
    attained_bytes_ +=
        per_flow_bps_ / 8.0 * (now - last_advance_).to_seconds();
  }
  last_advance_ = now;
}

void FlowLevelLoad::apply_load() {
  const std::size_t n = targets_.size();
  if (n == 0) {
    per_flow_bps_ = 0.0;
    offered_bps_ = 0.0;
    link_.set_background_load(0.0, 0);
    return;
  }
  const double capacity = link_.config().rate_bps;
  offered_bps_ = std::min(static_cast<double>(n) * kPerFlowAccessBps,
                          kMaxUtilization * capacity);
  per_flow_bps_ = offered_bps_ / static_cast<double>(n);
  // Imputed buffer occupancy scales with the aggregate's utilization; it
  // never claims the whole buffer (Link floors the residue at one slot
  // anyway, but staying below capacity keeps the model honest).
  const auto buffer = static_cast<double>(link_.config().queue_packets);
  const auto occupancy = static_cast<std::size_t>(
      kQueueFillFraction * buffer * (offered_bps_ / capacity));
  link_.set_background_load(offered_bps_, occupancy);
}

void FlowLevelLoad::arm_completion_timer() {
  completion_timer_.cancel();
  if (targets_.empty() || per_flow_bps_ <= 0.0) return;
  const double remaining = std::max(0.0, targets_.top() - attained_bytes_);
  // Ceil to whole nanoseconds so the timer never fires before the virtual
  // clock has actually reached the target (a truncated delay would leave an
  // epsilon of remaining service and re-arm a zero-length timer forever).
  const double delay_ns =
      std::ceil(remaining * 8.0 / per_flow_bps_ * 1e9);
  completion_timer_ = sim_.schedule(
      sim::Time::nanoseconds(static_cast<std::int64_t>(delay_ns)),
      [this] { on_completion(); });
}

void FlowLevelLoad::on_arrival() {
  advance_virtual_time();
  targets_.push(attained_bytes_ + draw_flow_bytes());
  ++flows_started_;
  ++perf::local().flow_level_flows;
  sim_.schedule(
      sim::Time::from_seconds(
          rng_.exponential(1.0 / config_.flows_per_second)),
      [this] { on_arrival(); });
  apply_load();
  arm_completion_timer();
}

void FlowLevelLoad::on_completion() {
  advance_virtual_time();
  // Tolerance absorbs double rounding in the ceil'd rearm; half a byte is
  // far below any real flow size.
  while (!targets_.empty() && targets_.top() <= attained_bytes_ + 0.5) {
    targets_.pop();
    ++flows_completed_;
  }
  apply_load();
  arm_completion_timer();
}

}  // namespace riptide::flow
