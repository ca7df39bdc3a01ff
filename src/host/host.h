#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/routing_table.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "tcp/config.h"
#include "tcp/connection.h"
#include "tcp/tuple.h"

namespace riptide::host {

// One row of the host's `ss -ti`-style connection dump: the information
// surface Riptide's observer polls (paper §III-B: current cwnd per open
// connection; bytes transferred are also "available via ss" and feed the
// traffic-weighted combiner variant).
struct SocketInfo {
  tcp::FourTuple tuple;
  tcp::TcpState state = tcp::TcpState::kClosed;
  std::uint32_t cwnd_segments = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_in_flight = 0;
  // Cumulative loss-recovery counters (real `ss -ti` prints retrans and
  // segs_out); the agent's staleness guard rates retransmissions against
  // segments sent to detect paths gone bad under a learned window.
  std::uint64_t retransmissions = 0;
  std::uint64_t segments_sent = 0;
};

struct HostStats {
  std::uint64_t packets_received = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t rst_sent = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t no_connection_drops = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_accepted = 0;
};

// A simulated Linux server: single NIC, TCP demultiplexer, routing table
// with per-route initial-window metrics, and listener sockets.
//
// Route metrics are consulted once per connection at setup time — for both
// actively opened and accepted connections, exactly as the kernel does —
// which is the hook Riptide exploits without touching the peer. They play
// no part in forwarding: with one NIC, every segment leaves by the uplink.
class Host : public net::PacketSink {
 public:
  // The accept hook runs before the SYN is processed so the application can
  // attach callbacks via TcpConnection::set_callbacks.
  using AcceptHook = std::function<void(tcp::TcpConnection&)>;

  Host(sim::Simulator& sim, std::string name, net::Ipv4Address address,
       tcp::TcpConfig default_config = {});

  // Sets the NIC's far end: every segment and RST this host sends is
  // handed to `uplink`. Installs no route. Until an uplink is attached,
  // segments are discarded and counted in HostStats::no_route_drops (RSTs
  // are discarded uncounted).
  void attach_uplink(net::PacketSink& uplink);

  // Active open. The effective TcpConfig starts from the host default,
  // applies `override_config` if given, then applies route metrics.
  tcp::TcpConnection& connect(
      net::Ipv4Address dst, std::uint16_t dst_port,
      tcp::TcpConnection::Callbacks callbacks,
      std::optional<tcp::TcpConfig> override_config = std::nullopt);

  void listen(std::uint16_t port, AcceptHook on_accept);
  void close_listener(std::uint16_t port);

  void receive(const net::Packet& packet) override;

  // The `ss` surface: a snapshot of all live connections.
  std::vector<SocketInfo> socket_stats() const;

  // Finds a live connection by tuple; nullptr when gone.
  tcp::TcpConnection* find_connection(const tcp::FourTuple& tuple);

  RoutingTable& routing_table() { return routes_; }
  const RoutingTable& routing_table() const { return routes_; }

  sim::Simulator& simulator() { return sim_; }
  const std::string& name() const { return name_; }
  net::Ipv4Address address() const { return address_; }
  tcp::TcpConfig& default_config() { return default_config_; }
  const HostStats& stats() const { return stats_; }
  std::size_t connection_count() const { return connections_.size(); }

  // Cumulative loss-recovery totals across live *and* already-closed
  // connections. Per-connection counters die with the connection; these
  // survive churn, which is what lets fault benches quantify the damage a
  // stale oversized window did before its flows finished.
  std::uint64_t total_retransmissions() const;
  std::uint64_t total_timeouts() const;

 private:
  tcp::TcpConfig effective_config(net::Ipv4Address peer,
                                  const tcp::TcpConfig& base) const;
  // TcpConnection::SegmentSender and TeardownHook targets: `ctx` is the
  // owning Host.
  static void send_segment_thunk(void* ctx, const tcp::FourTuple& tuple,
                                 tcp::SegmentRef seg);
  static void teardown_thunk(void* ctx, const tcp::FourTuple& tuple);
  void send_segment(const tcp::FourTuple& tuple, tcp::SegmentRef seg);
  void send_rst_for(const net::Packet& packet, const tcp::Segment& seg);
  tcp::TcpConnection& create_connection(const tcp::FourTuple& tuple,
                                        const tcp::TcpConfig& config,
                                        tcp::TcpConnection::Callbacks callbacks);
  void schedule_removal(const tcp::FourTuple& tuple);
  std::uint16_t allocate_port();

  sim::Simulator& sim_;
  std::string name_;
  net::Ipv4Address address_;
  tcp::TcpConfig default_config_;
  RoutingTable routes_;
  net::PacketSink* uplink_ = nullptr;

  // Each connection is built in place in its table node (one allocation
  // per socket, at a stable address). Iteration order is the row order of
  // socket_stats(), which the agent's per-destination float sums and the
  // golden fingerprint's cwnd samples depend on; it is a function of the
  // hash and the insert/erase sequence alone.
  std::unordered_map<tcp::FourTuple, tcp::TcpConnection, tcp::FourTupleHash>
      connections_;
  std::unordered_map<std::uint16_t, AcceptHook> listeners_;
  std::uint16_t next_ephemeral_port_ = 32768;
  HostStats stats_;
  // Loss-recovery counters inherited from connections already erased.
  std::uint64_t closed_retransmissions_ = 0;
  std::uint64_t closed_timeouts_ = 0;
};

}  // namespace riptide::host
