#include "host/host.h"

#include <stdexcept>
#include <utility>

#include "tcp/segment_pool.h"

namespace riptide::host {

namespace {

// IP + TCP headers on the wire, added to every segment's payload.
constexpr std::uint32_t kHeaderBytes = 40;

}  // namespace

Host::Host(sim::Simulator& sim, std::string name, net::Ipv4Address address,
           tcp::TcpConfig default_config)
    : sim_(sim),
      name_(std::move(name)),
      address_(address),
      default_config_(default_config) {}

void Host::attach_uplink(net::PacketSink& uplink) { uplink_ = &uplink; }

tcp::TcpConfig Host::effective_config(net::Ipv4Address peer,
                                      const tcp::TcpConfig& base) const {
  tcp::TcpConfig config = base;
  config.initial_cwnd_segments =
      routes_.effective_initcwnd(peer, base.initial_cwnd_segments);
  config.initial_rwnd_segments =
      routes_.effective_initrwnd(peer, base.initial_rwnd_segments);
  // Route-programmed congestion control, consumed once at connect/accept
  // like the windows above (Linux reads the route's congctl the same way).
  tcp::apply_route_cc(routes_.effective_cc(peer), config);
  return config;
}

std::uint16_t Host::allocate_port() {
  // Linux-style ephemeral range; skip ports that are still in use (e.g. a
  // lingering TIME-WAIT with the same peer would be caught at tuple insert).
  const std::uint16_t port = next_ephemeral_port_;
  next_ephemeral_port_ =
      next_ephemeral_port_ >= 60999 ? 32768 : next_ephemeral_port_ + 1;
  return port;
}

tcp::TcpConnection& Host::create_connection(
    const tcp::FourTuple& tuple, const tcp::TcpConfig& config,
    tcp::TcpConnection::Callbacks callbacks) {
  auto conn = std::make_unique<tcp::TcpConnection>(
      sim_, config, tuple, &Host::send_segment_thunk, this,
      std::move(callbacks));
  // Host-owned cleanup; survives any later set_callbacks by the app.
  conn->set_teardown_hook([this, tuple] { schedule_removal(tuple); });
  auto [it, inserted] = connections_.emplace(tuple, std::move(conn));
  if (!inserted) {
    throw std::logic_error("Host::create_connection: tuple already in use: " +
                           tuple.to_string());
  }
  return *it->second;
}

void Host::schedule_removal(const tcp::FourTuple& tuple) {
  // Deferred: the connection object is still on the call stack.
  sim_.schedule(sim::Time::zero(), [this, tuple] {
    const auto it = connections_.find(tuple);
    if (it != connections_.end() && it->second->closed()) {
      closed_retransmissions_ += it->second->stats().retransmissions;
      closed_timeouts_ += it->second->stats().timeouts;
      connections_.erase(it);
    }
  });
}

std::uint64_t Host::total_retransmissions() const {
  std::uint64_t total = closed_retransmissions_;
  for (const auto& [tuple, conn] : connections_) {
    total += conn->stats().retransmissions;
  }
  return total;
}

std::uint64_t Host::total_timeouts() const {
  std::uint64_t total = closed_timeouts_;
  for (const auto& [tuple, conn] : connections_) {
    total += conn->stats().timeouts;
  }
  return total;
}

tcp::TcpConnection& Host::connect(
    net::Ipv4Address dst, std::uint16_t dst_port,
    tcp::TcpConnection::Callbacks callbacks,
    std::optional<tcp::TcpConfig> override_config) {
  const tcp::TcpConfig base = override_config.value_or(default_config_);
  const tcp::TcpConfig config = effective_config(dst, base);

  tcp::FourTuple tuple{address_, allocate_port(), dst, dst_port};
  // Extremely long simulations can wrap the ephemeral space; skip over any
  // tuple still alive.
  while (connections_.contains(tuple)) tuple.local_port = allocate_port();

  ++stats_.connections_opened;
  auto& conn = create_connection(tuple, config, std::move(callbacks));
  conn.connect();
  return conn;
}

void Host::listen(std::uint16_t port, AcceptHook on_accept) {
  if (!listeners_.emplace(port, std::move(on_accept)).second) {
    throw std::logic_error("Host::listen: port already listening");
  }
}

void Host::close_listener(std::uint16_t port) { listeners_.erase(port); }

void Host::send_segment_thunk(void* ctx, const tcp::FourTuple& tuple,
                              tcp::SegmentRef seg) {
  static_cast<Host*>(ctx)->send_segment(tuple, std::move(seg));
}

void Host::send_segment(const tcp::FourTuple& tuple, tcp::SegmentRef seg) {
  if (uplink_ == nullptr) {
    ++stats_.no_route_drops;
    return;
  }
  net::Packet packet;
  packet.src = tuple.local_addr;
  packet.dst = tuple.remote_addr;
  packet.size_bytes = seg->payload_bytes + kHeaderBytes;
  packet.payload = std::move(seg).ref();
  ++stats_.packets_sent;
  uplink_->receive(packet);
}

void Host::send_rst_for(const net::Packet& packet, const tcp::Segment& seg) {
  if (uplink_ == nullptr) return;
  tcp::SegmentRef rst = tcp::SegmentPool::local().allocate();
  rst->src_port = seg.dst_port;
  rst->dst_port = seg.src_port;
  rst->rst = true;
  rst->ack_flag = true;
  rst->ack = seg.seq_end();
  net::Packet out;
  out.src = packet.dst;
  out.dst = packet.src;
  out.size_bytes = kHeaderBytes;
  out.payload = std::move(rst).ref();
  ++stats_.rst_sent;
  ++stats_.packets_sent;
  uplink_->receive(out);
}

void Host::receive(const net::Packet& packet) {
  ++stats_.packets_received;
  const auto* seg = tcp::segment_from(packet);
  if (seg == nullptr) return;  // only TCP exists in this simulation

  const tcp::FourTuple tuple{packet.dst, seg->dst_port, packet.src,
                             seg->src_port};
  const auto it = connections_.find(tuple);
  if (it != connections_.end()) {
    it->second->on_segment(*seg);
    return;
  }

  if (seg->syn && !seg->ack_flag) {
    const auto listener = listeners_.find(seg->dst_port);
    if (listener != listeners_.end()) {
      ++stats_.connections_accepted;
      const tcp::TcpConfig config =
          effective_config(packet.src, default_config_);
      auto& conn = create_connection(tuple, config, {});
      listener->second(conn);
      conn.accept(*seg);
      return;
    }
  }

  ++stats_.no_connection_drops;
  if (!seg->rst) send_rst_for(packet, *seg);
}

std::vector<SocketInfo> Host::socket_stats() const {
  std::vector<SocketInfo> out;
  out.reserve(connections_.size());
  for (const auto& [tuple, conn] : connections_) {
    SocketInfo info;
    info.tuple = tuple;
    info.state = conn->state();
    info.cwnd_segments = conn->cwnd_segments();
    info.bytes_acked = conn->bytes_acked();
    info.bytes_in_flight = conn->bytes_in_flight();
    info.retransmissions = conn->stats().retransmissions;
    info.segments_sent = conn->stats().segments_sent;
    out.push_back(info);
  }
  return out;
}

tcp::TcpConnection* Host::find_connection(const tcp::FourTuple& tuple) {
  const auto it = connections_.find(tuple);
  return it == connections_.end() ? nullptr : it->second.get();
}

}  // namespace riptide::host
