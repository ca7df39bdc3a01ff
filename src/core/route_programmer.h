#pragma once

#include <cstdint>

#include "host/host.h"
#include "net/ipv4.h"

namespace riptide::core {

// The agent's actuator: installs or withdraws per-destination initial
// windows. In the paper this is the `ip route replace ... initcwnd N`
// command of Fig 8; here it writes the host routing-table metrics the TCP
// stack consults at connect time. Abstracted so tests can intercept
// programming decisions.
class RouteProgrammer {
 public:
  virtual ~RouteProgrammer() = default;

  // Installs `initcwnd` (and, when nonzero, `initrwnd`) toward `dst`.
  // `cc` optionally pins a congestion-control regime on the same route
  // (kUnset leaves the host default in force), mirroring
  // `ip route ... congctl <name>`.
  virtual void set_initial_windows(
      const net::Prefix& dst, std::uint32_t initcwnd_segments,
      std::uint32_t initrwnd_segments,
      tcp::RouteCc cc = tcp::RouteCc::kUnset) = 0;

  // Withdraws the route, restoring default windows (TTL expiry path).
  virtual void clear(const net::Prefix& dst) = 0;
};

// Programs a simulated host's routing table. A route holds metrics only and
// every segment leaves by the host's one uplink, so the paper's "set a
// route which otherwise reflects identical settings to the default route"
// (§III-C) holds by construction.
class HostRouteProgrammer : public RouteProgrammer {
 public:
  explicit HostRouteProgrammer(host::Host& host) : host_(host) {}

  void set_initial_windows(const net::Prefix& dst,
                           std::uint32_t initcwnd_segments,
                           std::uint32_t initrwnd_segments,
                           tcp::RouteCc cc = tcp::RouteCc::kUnset) override;
  void clear(const net::Prefix& dst) override;

  std::uint64_t routes_programmed() const { return routes_programmed_; }
  std::uint64_t routes_cleared() const { return routes_cleared_; }

 private:
  host::Host& host_;
  std::uint64_t routes_programmed_ = 0;
  std::uint64_t routes_cleared_ = 0;
};

}  // namespace riptide::core
