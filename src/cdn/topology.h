#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/pops.h"
#include "host/host.h"
#include "net/link.h"
#include "net/router.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "tcp/config.h"

namespace riptide::cdn {

struct TopologyConfig {
  int hosts_per_pop = 2;

  // WAN paths between PoP routers: one logical pipe per directed PoP pair.
  double wan_rate_bps = 10e9;
  std::size_t wan_queue_packets = 4096;
  // Residual random loss standing in for cross-traffic on shared segments.
  double wan_loss_probability = 5e-5;

  std::uint64_t seed = 1;
  tcp::TcpConfig host_tcp{};
};

// Builds the simulated CDN: one router per PoP, `hosts_per_pop` servers
// behind it, and a full mesh of WAN links whose propagation delays come
// from PoP geography. Addressing gives PoP i the prefix 10.i.0.0/16 — the
// even-prefix layout that makes the paper's per-prefix route granularity
// (§III-B "Destinations as Routes") meaningful.
class Topology {
 public:
  struct Pop {
    PopSpec spec;
    net::Prefix prefix;
    net::Router* router = nullptr;
    std::vector<host::Host*> hosts;
  };

  Topology(sim::Simulator& sim, TopologyConfig config,
           std::vector<PopSpec> specs = default_pop_specs());

  const std::vector<Pop>& pops() const { return pops_; }
  std::size_t pop_count() const { return pops_.size(); }
  host::Host& host(std::size_t pop, std::size_t index);
  const host::Host& host(std::size_t pop, std::size_t index) const;
  std::vector<host::Host*> all_hosts();

  // Index of the PoP owning `addr`, or -1.
  int pop_of(net::Ipv4Address addr) const;

  // Minimum (uncongested) round-trip time between hosts of two PoPs.
  sim::Time base_rtt(std::size_t pop_a, std::size_t pop_b) const;

  // The directed WAN link between two PoP routers (for fault injection and
  // queue inspection in tests). Precondition: from != to.
  net::Link& wan_link(std::size_t from, std::size_t to);

  // Per-reason drop totals across every link and router in the topology,
  // so fault runs are explainable from counters alone.
  struct DropTotals {
    std::uint64_t queue_full = 0;
    std::uint64_t random_loss = 0;
    std::uint64_t link_down = 0;
    std::uint64_t no_route = 0;
  };
  DropTotals drop_totals() const;

  // Loss-recovery activity summed over every host (live + closed
  // connections) — the safety metric of the fault benches.
  std::uint64_t total_retransmissions() const;
  std::uint64_t total_timeouts() const;

  sim::Simulator& simulator() { return sim_; }
  sim::Rng& rng() { return rng_; }
  const TopologyConfig& config() const { return config_; }

 private:
  void build(const std::vector<PopSpec>& specs);

  sim::Simulator& sim_;
  TopologyConfig config_;
  sim::Rng rng_;  // link loss stream
  std::vector<Pop> pops_;
  std::vector<std::unique_ptr<net::Router>> routers_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<host::Host>> hosts_;
  // wan_links_[from * pop_count + to]; nullptr on the diagonal.
  std::vector<net::Link*> wan_matrix_;
};

}  // namespace riptide::cdn
