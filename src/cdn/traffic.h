#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cdn/file_size_dist.h"
#include "host/host.h"
#include "net/ipv4.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace riptide::cdn {

// Accepts and discards whatever is sent to it — the receiving end of
// organic back-office transfers (cache fills, log shipping, coordination
// payloads).
class SinkServer {
 public:
  static constexpr std::uint16_t kPort = 9900;

  explicit SinkServer(host::Host& host);
  void start();

  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t connections_accepted() const { return accepted_; }

 private:
  host::Host& host_;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t accepted_ = 0;
  bool started_ = false;
};

struct OrganicSourceConfig {
  // Poisson arrivals of outbound transfers.
  double mean_interarrival_seconds = 0.2;
  FileSizeDistribution sizes{};
  // Per-transfer probability that the connection is closed afterwards,
  // modelling the application errors / restarts of §II-A that force fresh
  // connections.
  double close_probability = 0.05;
};

// Generates "organic" PoP-to-PoP traffic from one host: size-distributed
// objects pushed to random targets over a per-destination connection pool.
// This is what separates the paper's busy PoP from the probe-only PoP in
// Fig 11: organic transfers drive congestion windows far higher than the
// fixed-size probes do.
class OrganicSource {
 public:
  OrganicSource(sim::Simulator& sim, host::Host& host,
                std::vector<net::Ipv4Address> targets,
                OrganicSourceConfig config, sim::Rng& rng);

  void start();

  std::uint64_t transfers_started() const { return transfers_; }
  std::uint64_t bytes_queued() const { return bytes_queued_; }

 private:
  struct Pool {
    net::Ipv4Address target;
    tcp::TcpConnection* conn = nullptr;
    // Bumped whenever the pool disowns a connection, so callbacks of a
    // superseded connection can't clobber a newer one's state.
    std::uint64_t generation = 0;
    std::uint64_t backlog = 0;  // bytes to send once established
    bool close_after_drain = false;
  };

  void schedule_next();
  void transfer_once();
  void ensure_connection(Pool& pool);

  sim::Simulator& sim_;
  host::Host& host_;
  OrganicSourceConfig config_;
  sim::Rng& rng_;
  std::deque<Pool> pools_;  // stable addresses for callback capture
  std::uint64_t transfers_ = 0;
  std::uint64_t bytes_queued_ = 0;
  bool started_ = false;
};

}  // namespace riptide::cdn
