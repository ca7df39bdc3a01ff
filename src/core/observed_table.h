#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/ipv4.h"
#include "sim/time.h"

namespace riptide::core {

// Per-destination learned state: the smoothed window and when it was last
// refreshed. The stored value is the *final* (clamped) window of the
// previous round — Algorithm 1 feeds it back as the history term.
struct DestinationState {
  double final_window_segments = 0.0;
  sim::Time last_updated;
  std::uint64_t updates = 0;

  friend bool operator==(const DestinationState&,
                         const DestinationState&) = default;
};

// Riptide's "observed table" (§III-B): destination group -> learned window.
// Ordered by prefix for deterministic iteration in logs and tests.
class ObservedTable {
 public:
  // Folds one fresh combined observation into the entry, returning the new
  // final value: alpha * previous_final + (1 - alpha) * observed, seeded
  // with the observation itself on first contact. Clamping is the caller's
  // job (the clamped result is what gets stored, via `store_final`).
  double fold(const net::Prefix& destination, double observed, double alpha,
              sim::Time now);

  // Overwrites the stored final value (after clamping).
  void store_final(const net::Prefix& destination, double final_value,
                   sim::Time now);

  // Installs a complete entry verbatim (warm restore); replaces any
  // existing entry for the destination.
  void put(const net::Prefix& destination, const DestinationState& state);

  bool contains(const net::Prefix& destination) const;
  const DestinationState* find(const net::Prefix& destination) const;

  // Removes entries whose last update is older than `ttl` and returns them
  // (so the agent can withdraw the corresponding routes).
  std::vector<net::Prefix> expire(sim::Time now, sim::Time ttl);

  // Drops one entry (staleness-guard withdrawal); false when absent.
  bool erase(const net::Prefix& destination);

  const std::map<net::Prefix, DestinationState, net::PrefixOrder>& entries()
      const {
    return entries_;
  }
  std::size_t size() const { return entries_.size(); }

  friend bool operator==(const ObservedTable&, const ObservedTable&) = default;

 private:
  // Keyed by the explicit PrefixOrder: iteration order determines
  // route-programming order (warm-restore reinstalls included), so it
  // must be the same on every platform and in every process generation.
  std::map<net::Prefix, DestinationState, net::PrefixOrder> entries_;
};

}  // namespace riptide::core
