#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace riptide::sim {
class Rng;
}

namespace riptide::net {

// Counters a link exposes for diagnostics and experiments. Drops are
// attributed to exactly one reason so fault runs are debuggable from the
// counters alone.
struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t drops_queue_full = 0;
  std::uint64_t drops_random_loss = 0;
  std::uint64_t drops_link_down = 0;
  std::uint64_t bytes_delivered = 0;
};

// Unidirectional point-to-point link: rate, propagation delay, drop-tail
// queue bounded in packets, optional i.i.d. random loss (standing in for
// cross-traffic on shared WAN segments). Rate, delay, loss, and the
// administrative up/down state are runtime-mutable so fault injection can
// degrade or flap a path mid-run; changes apply to packets admitted after
// the change (in-flight packets keep the parameters they were sent under).
//
// Lifetime: a Link schedules delivery events that reference it, so it must
// outlive the simulation run (or at least every packet admitted to it).
// Topologies own their links for the full run. To degrade a path mid-run,
// mutate its link in place (below): a host sends by the one uplink it was
// given and cannot be re-pointed at a replacement link.
//
// The transmission pipeline is modeled with a single "transmitter busy
// until" timestamp: a packet admitted at time t starts serializing at
// max(t, busy_until) provided the queue has room, and is delivered to the
// sink one propagation delay after serialization finishes.
class Link : public PacketSink {
 public:
  struct Config {
    double rate_bps = 1e9;            // serialization rate
    sim::Time propagation_delay = sim::Time::milliseconds(1);
    std::size_t queue_packets = 256;  // drop-tail capacity beyond in-service
    double loss_probability = 0.0;    // i.i.d. loss applied before queueing
    std::string name = "link";
  };

  // `rng` may be null when loss_probability == 0.
  Link(sim::Simulator& sim_, Config config, PacketSink& sink,
       sim::Rng* rng = nullptr);

  void receive(const Packet& packet) override;

  // Serialization delay for a packet of `bytes` at this link's rate.
  sim::Time transmission_time(std::uint32_t bytes) const;

  const LinkStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  // Packets admitted but not yet fully serialized as of `now`. Occupancy
  // is tracked as a ring of serialization-completion times pruned lazily,
  // not with a per-packet "free the slot" event: the event-queue traffic
  // this saves is one schedule + one dispatch per packet.
  std::size_t queue_depth() const;

  // -- Runtime mutation (fault injection) --
  // A downed link drops every packet offered to it (counted separately);
  // packets already serializing or in flight still deliver, as on a real
  // interface whose far end goes away after transmission. Actual flips
  // emit a `link` trace event (defined out of line for that reason).
  void set_up(bool up);
  bool is_up() const { return up_; }

  // Precondition: rate > 0.
  void set_rate_bps(double rate_bps);
  // Precondition: p in [0, 1]; p > 0 requires the link to have an Rng.
  void set_loss_probability(double p);
  void set_propagation_delay(sim::Time delay);

  // -- Flow-level background load (src/flow hybrid fidelity) --
  // A fluid cross-traffic aggregate occupies `offered_bps` of this link's
  // capacity and `queue_packets` of its buffer without per-packet events.
  // Packet-level traffic admitted afterwards serializes at the residual
  // rate (floored at 1% of capacity so a saturating aggregate stalls, not
  // divides by zero) and sees the residual buffer (floored at one slot).
  // Both default to zero, in which case every code path is bit-identical
  // to a build without the feature.
  void set_background_load(double offered_bps, std::size_t queue_packets);
  double background_bps() const { return background_bps_; }
  std::size_t background_queue_packets() const { return background_queue_; }

 private:
  // Drops completion stamps that are in the past; the remainder is the
  // live queue occupancy.
  void prune_completed();

  sim::Simulator& sim_;
  Config config_;
  PacketSink& sink_;
  sim::Rng* rng_;
  double background_bps_ = 0.0;
  std::size_t background_queue_ = 0;
  sim::Time busy_until_;
  // Serialization-completion times of admitted packets, non-decreasing
  // (FIFO service discipline), pruned against sim_.now() on each receive.
  std::deque<sim::Time> completions_;
  bool up_ = true;
  LinkStats stats_;
};

}  // namespace riptide::net
