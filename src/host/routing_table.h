#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "tcp/config.h"

namespace riptide::host {

// Per-route TCP metrics, mirroring the `initcwnd` / `initrwnd` attributes of
// `ip route`. Zero means "unset — use the system default". This is the
// entire kernel surface Riptide drives (paper §III-C: the initial window
// cannot be set per-socket, only per-route). `cc` extends the same idiom to
// congestion-control selection (`ip route ... congctl <name>` on modern
// kernels): kUnset defers to the host-wide TcpConfig.
struct RouteMetrics {
  std::uint32_t initcwnd_segments = 0;
  std::uint32_t initrwnd_segments = 0;
  tcp::RouteCc cc = tcp::RouteCc::kUnset;

  friend bool operator==(const RouteMetrics&, const RouteMetrics&) = default;
};

struct RouteEntry {
  net::Prefix prefix;
  RouteMetrics metrics;
};

// A host routing table with longest-prefix-match semantics and `ip route`
// style mutation. It holds metrics only: a host has one NIC, so there is no
// egress to resolve, and segments leave by the uplink without consulting
// it. Lookups happen when a connection is opened or accepted (as in Linux,
// where the route's initcwnd is read once when the socket transmits its
// SYN), so a linear scan over a sorted vector is plenty.
class RoutingTable {
 public:
  // `ip route replace <prefix> ... initcwnd N initrwnd M`
  void add_or_replace(const net::Prefix& prefix, RouteMetrics metrics = {});

  // `ip route del <prefix>`; returns false when absent.
  bool remove(const net::Prefix& prefix);

  bool has_route(const net::Prefix& prefix) const;

  // Exact-prefix lookup (no LPM); nullptr when absent. The agent's route
  // reconciler uses this to compare what it installed with what the table
  // actually holds now.
  const RouteEntry* find_route(const net::Prefix& prefix) const;

  // Routes that look Riptide-installed: non-default prefix with a nonzero
  // initcwnd metric. Returned in PrefixOrder so callers iterating them
  // act deterministically.
  std::vector<RouteEntry> learned_routes() const;

  // Longest-prefix match; nullptr when nothing covers `dst`.
  const RouteEntry* lookup(net::Ipv4Address dst) const;

  // Effective initial windows for a destination: the most specific route's
  // metric, or `fallback` where the metric is unset.
  std::uint32_t effective_initcwnd(net::Ipv4Address dst,
                                   std::uint32_t fallback) const;
  std::uint32_t effective_initrwnd(net::Ipv4Address dst,
                                   std::uint32_t fallback) const;

  // Congestion-control regime programmed for a destination; kUnset when no
  // covering route carries one (host default applies).
  tcp::RouteCc effective_cc(net::Ipv4Address dst) const;

  const std::vector<RouteEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

 private:
  // Sorted by descending prefix length (most specific first).
  std::vector<RouteEntry> entries_;
};

}  // namespace riptide::host
