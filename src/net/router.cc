#include "net/router.h"

#include <algorithm>

namespace riptide::net {

void Router::add_route(const Prefix& prefix, PacketSink& next_hop) {
  for (auto& route : routes_) {
    if (route.prefix == prefix) {
      route.next_hop = &next_hop;
      return;
    }
  }
  // After every route at least as long, so equal lengths keep insertion
  // order.
  const auto at = std::upper_bound(
      routes_.begin(), routes_.end(), prefix.length(),
      [](int length, const Route& r) { return length > r.prefix.length(); });
  routes_.insert(at, Route{prefix, &next_hop});
}

bool Router::remove_route(const Prefix& prefix) {
  const auto it = std::find_if(
      routes_.begin(), routes_.end(),
      [&](const Route& r) { return r.prefix == prefix; });
  if (it == routes_.end()) return false;
  routes_.erase(it);
  return true;
}

PacketSink* Router::lookup(Ipv4Address dst) const {
  for (const auto& route : routes_) {
    if (route.prefix.contains(dst)) return route.next_hop;
  }
  return nullptr;
}

void Router::receive(const Packet& packet) {
  PacketSink* next = lookup(packet.dst);
  if (next == nullptr) {
    ++no_route_drops_;
    return;
  }
  ++forwarded_;
  next->receive(packet);
}

}  // namespace riptide::net
