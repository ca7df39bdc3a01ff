#include "host/routing_table.h"

#include <algorithm>

namespace riptide::host {

void RoutingTable::add_or_replace(const net::Prefix& prefix,
                                  RouteMetrics metrics) {
  for (auto& entry : entries_) {
    if (entry.prefix == prefix) {
      entry.metrics = metrics;
      return;
    }
  }
  entries_.push_back(RouteEntry{prefix, metrics});
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const RouteEntry& a, const RouteEntry& b) {
                     return a.prefix.length() > b.prefix.length();
                   });
}

bool RoutingTable::remove(const net::Prefix& prefix) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const RouteEntry& e) { return e.prefix == prefix; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

bool RoutingTable::has_route(const net::Prefix& prefix) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const RouteEntry& e) { return e.prefix == prefix; });
}

const RouteEntry* RoutingTable::find_route(const net::Prefix& prefix) const {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const RouteEntry& e) { return e.prefix == prefix; });
  return it == entries_.end() ? nullptr : &*it;
}

std::vector<RouteEntry> RoutingTable::learned_routes() const {
  std::vector<RouteEntry> learned;
  learned.reserve(entries_.size());
  for (const auto& entry : entries_) {
    if (entry.prefix.length() == 0) continue;
    if (entry.metrics.initcwnd_segments == 0) continue;
    learned.push_back(entry);
  }
  std::sort(learned.begin(), learned.end(),
            [](const RouteEntry& a, const RouteEntry& b) {
              return net::PrefixOrder{}(a.prefix, b.prefix);
            });
  return learned;
}

const RouteEntry* RoutingTable::lookup(net::Ipv4Address dst) const {
  for (const auto& entry : entries_) {
    if (entry.prefix.contains(dst)) return &entry;
  }
  return nullptr;
}

std::uint32_t RoutingTable::effective_initcwnd(net::Ipv4Address dst,
                                               std::uint32_t fallback) const {
  const RouteEntry* entry = lookup(dst);
  if (entry == nullptr || entry->metrics.initcwnd_segments == 0) {
    return fallback;
  }
  return entry->metrics.initcwnd_segments;
}

std::uint32_t RoutingTable::effective_initrwnd(net::Ipv4Address dst,
                                               std::uint32_t fallback) const {
  const RouteEntry* entry = lookup(dst);
  if (entry == nullptr || entry->metrics.initrwnd_segments == 0) {
    return fallback;
  }
  return entry->metrics.initrwnd_segments;
}

tcp::RouteCc RoutingTable::effective_cc(net::Ipv4Address dst) const {
  const RouteEntry* entry = lookup(dst);
  if (entry == nullptr) return tcp::RouteCc::kUnset;
  return entry->metrics.cc;
}

}  // namespace riptide::host
