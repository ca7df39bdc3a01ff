#include "cdn/topology.h"

#include <stdexcept>
#include <string>

namespace riptide::cdn {

Topology::Topology(sim::Simulator& sim, TopologyConfig config,
                   std::vector<PopSpec> specs)
    : sim_(sim), config_(config), rng_(config.seed) {
  build(specs);
}

void Topology::build(const std::vector<PopSpec>& specs) {
  if (specs.empty()) throw std::invalid_argument("Topology: no PoPs");
  if (specs.size() > 200) throw std::invalid_argument("Topology: too many PoPs");
  if (config_.hosts_per_pop < 1 || config_.hosts_per_pop > 250) {
    throw std::invalid_argument("Topology: hosts_per_pop out of range");
  }

  const std::size_t n = specs.size();
  pops_.reserve(n);
  routers_.reserve(n);

  // PoP routers and hosts.
  for (std::size_t i = 0; i < n; ++i) {
    routers_.push_back(std::make_unique<net::Router>(specs[i].name + "-rtr"));
    Pop pop;
    pop.spec = specs[i];
    pop.prefix = net::Prefix(
        net::Ipv4Address(10, static_cast<std::uint8_t>(i), 0, 0), 16);
    pop.router = routers_.back().get();
    pops_.push_back(std::move(pop));
  }

  const net::Link::Config lan_up_cfg{
      config_.lan_rate_bps, config_.lan_delay, config_.lan_queue_packets,
      0.0, "lan"};

  for (std::size_t i = 0; i < n; ++i) {
    auto& pop = pops_[i];
    for (int h = 0; h < config_.hosts_per_pop; ++h) {
      const net::Ipv4Address addr(10, static_cast<std::uint8_t>(i), 0,
                                  static_cast<std::uint8_t>(h + 1));
      hosts_.push_back(std::make_unique<host::Host>(
          sim_, pop.spec.name + "-" + std::to_string(h + 1), addr,
          config_.host_tcp));
      host::Host& host = *hosts_.back();

      // Downlink router -> host.
      auto down_cfg = lan_up_cfg;
      down_cfg.name = pop.spec.name + "-down-" + std::to_string(h + 1);
      links_.push_back(
          std::make_unique<net::Link>(sim_, down_cfg, host, &rng_));
      pop.router->add_route(net::Prefix::host(addr), *links_.back());

      // Uplink host -> router.
      auto up_cfg = lan_up_cfg;
      up_cfg.name = pop.spec.name + "-up-" + std::to_string(h + 1);
      links_.push_back(
          std::make_unique<net::Link>(sim_, up_cfg, *pop.router, &rng_));
      host.attach_uplink(*links_.back());

      pop.hosts.push_back(&host);
    }
  }

  // Full mesh of WAN links between PoP routers.
  wan_matrix_.assign(n * n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      net::Link::Config cfg;
      cfg.rate_bps = config_.wan_rate_bps;
      cfg.propagation_delay = propagation_delay(
          pops_[i].spec.location, pops_[j].spec.location,
          config_.path_inflation);
      cfg.queue_packets = config_.wan_queue_packets;
      cfg.loss_probability = config_.wan_loss_probability;
      cfg.name = pops_[i].spec.name + "->" + pops_[j].spec.name;
      links_.push_back(
          std::make_unique<net::Link>(sim_, cfg, *pops_[j].router, &rng_));
      wan_matrix_[i * n + j] = links_.back().get();
      pops_[i].router->add_route(pops_[j].prefix, *links_.back());
    }
  }
}

host::Host& Topology::host(std::size_t pop, std::size_t index) {
  return *pops_.at(pop).hosts.at(index);
}

const host::Host& Topology::host(std::size_t pop, std::size_t index) const {
  return *pops_.at(pop).hosts.at(index);
}

std::vector<host::Host*> Topology::all_hosts() {
  std::vector<host::Host*> out;
  out.reserve(hosts_.size());
  for (auto& h : hosts_) out.push_back(h.get());
  return out;
}

int Topology::pop_of(net::Ipv4Address addr) const {
  for (std::size_t i = 0; i < pops_.size(); ++i) {
    if (pops_[i].prefix.contains(addr)) return static_cast<int>(i);
  }
  return -1;
}

sim::Time Topology::base_rtt(std::size_t pop_a, std::size_t pop_b) const {
  const sim::Time one_way =
      propagation_delay(pops_.at(pop_a).spec.location,
                        pops_.at(pop_b).spec.location,
                        config_.path_inflation) +
      2 * config_.lan_delay;
  return 2 * one_way;
}

net::Link& Topology::wan_link(std::size_t from, std::size_t to) {
  if (from == to) throw std::invalid_argument("Topology::wan_link: from == to");
  net::Link* link = wan_matrix_.at(from * pop_count() + to);
  if (link == nullptr) throw std::logic_error("Topology::wan_link: missing");
  return *link;
}

Topology::DropTotals Topology::drop_totals() const {
  DropTotals totals;
  for (const auto& link : links_) {
    const net::LinkStats& s = link->stats();
    totals.queue_full += s.drops_queue_full;
    totals.random_loss += s.drops_random_loss;
    totals.link_down += s.drops_link_down;
  }
  for (const auto& router : routers_) {
    totals.no_route += router->no_route_drops();
  }
  return totals;
}

std::uint64_t Topology::total_retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& host : hosts_) total += host->total_retransmissions();
  return total;
}

std::uint64_t Topology::total_timeouts() const {
  std::uint64_t total = 0;
  for (const auto& host : hosts_) total += host->total_timeouts();
  return total;
}

}  // namespace riptide::cdn
