#include "net/link.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sim/random.h"
#include "stats/perf.h"
#include "trace/sink.h"

namespace riptide::net {

Link::Link(sim::Simulator& sim, Config config, PacketSink& sink, sim::Rng* rng)
    : sim_(sim), config_(std::move(config)), sink_(sink), rng_(rng) {
  if (config_.rate_bps <= 0.0) {
    throw std::invalid_argument("Link: rate must be positive");
  }
  if (config_.loss_probability > 0.0 && rng_ == nullptr) {
    throw std::invalid_argument("Link: loss requires an Rng");
  }
}

sim::Time Link::transmission_time(std::uint32_t bytes) const {
  double rate = config_.rate_bps;
  if (background_bps_ > 0.0) {
    // Residual capacity under the fluid cross-traffic aggregate, floored
    // so a saturating aggregate slows packet traffic ~100x rather than
    // producing infinite serialization times.
    rate = std::max(rate - background_bps_, rate * 0.01);
  }
  return sim::Time::from_seconds(static_cast<double>(bytes) * 8.0 / rate);
}

void Link::set_background_load(double offered_bps,
                               std::size_t queue_packets) {
  if (offered_bps < 0.0) {
    throw std::invalid_argument("Link::set_background_load: negative rate");
  }
  background_bps_ = offered_bps;
  background_queue_ = queue_packets;
}

void Link::set_rate_bps(double rate_bps) {
  if (rate_bps <= 0.0) {
    throw std::invalid_argument("Link::set_rate_bps: rate must be positive");
  }
  config_.rate_bps = rate_bps;
}

void Link::set_loss_probability(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Link::set_loss_probability: p outside [0,1]");
  }
  if (p > 0.0 && rng_ == nullptr) {
    throw std::invalid_argument("Link::set_loss_probability: loss requires Rng");
  }
  config_.loss_probability = p;
}

void Link::set_propagation_delay(sim::Time delay) {
  config_.propagation_delay = delay;
}

void Link::set_up(bool up) {
  if (up != up_) {
    if (auto* sink = trace::active()) {
      trace::TraceEvent ev;
      ev.at_ns = sim_.now().ns();
      ev.kind = trace::EventKind::kLink;
      ev.link = {};
      std::strncpy(ev.link.name, config_.name.c_str(),
                   sizeof(ev.link.name) - 1);
      ev.link.up = up ? 1 : 0;
      sink->emit(ev);
    }
  }
  up_ = up;
}

void Link::prune_completed() {
  // A slot is freed the instant serialization completes — a completion
  // stamped exactly `now` no longer occupies the buffer, matching the
  // previous event-based scheme where the free ran before any same-time
  // admission attempt.
  const sim::Time now = sim_.now();
  while (!completions_.empty() && completions_.front() <= now) {
    completions_.pop_front();
  }
}

std::size_t Link::queue_depth() const {
  // Count without mutating: completions_ is sorted, so the live entries
  // are the strict upper range above now.
  const sim::Time now = sim_.now();
  return static_cast<std::size_t>(
      std::end(completions_) -
      std::upper_bound(std::begin(completions_), std::end(completions_), now));
}

void Link::receive(const Packet& packet) {
  ++stats_.packets_sent;

  if (!up_) {
    ++stats_.drops_link_down;
    return;
  }

  if (rng_ != nullptr && rng_->bernoulli(config_.loss_probability)) {
    ++stats_.drops_random_loss;
    return;
  }

  prune_completed();
  std::size_t capacity = config_.queue_packets;
  if (background_queue_ > 0) {
    // Fluid cross-traffic occupies part of the buffer; packet traffic
    // contends for the residue (never less than one slot, so the link
    // stays usable even under a standing overload).
    capacity = background_queue_ < capacity ? capacity - background_queue_
                                            : std::size_t{1};
  }
  if (completions_.size() >= capacity) {
    ++stats_.drops_queue_full;
    return;
  }

  const sim::Time start = std::max(sim_.now(), busy_until_);
  const sim::Time done = start + transmission_time(packet.size_bytes);
  busy_until_ = done;
  // The buffer slot is freed once serialization completes; propagation is
  // flight time on the wire and must not consume queue capacity (a long
  // path would otherwise throttle the link far below its rate).
  completions_.push_back(done);
  auto& perf = perf::local();
  ++perf.packets_queued;
  perf.bytes_queued += packet.size_bytes;

  // Delivery events are the bulk of a packet-level run's event
  // population, and `done + propagation_delay` is at most milliseconds
  // ahead — inside the scheduler's wide low levels, so these inserts
  // land at their final wheel position (at most one cascade; see the
  // level sizing rationale in sim/simulator.h).
  sim_.schedule_at(done + config_.propagation_delay, [this, packet] {
    ++stats_.packets_delivered;
    stats_.bytes_delivered += packet.size_bytes;
    sink_.receive(packet);
  });
}

}  // namespace riptide::net
