#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "cdn/file_size_dist.h"
#include "cdn/lru_cache.h"
#include "cdn/metrics.h"
#include "cdn/zipf.h"
#include "host/host.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace riptide::cdn {

struct CacheFillConfig {
  // User-request arrival process at the edge.
  double mean_interarrival_seconds = 0.05;

  // Object catalog: Zipf-popular ids with sizes drawn (deterministically
  // per id) from the Fig 2 distribution, rounded to the probe protocol's
  // 1 KB granularity.
  std::size_t catalog_size = 5'000;
  double zipf_exponent = 0.9;
  FileSizeDistribution sizes{};

  std::uint64_t cache_capacity_bytes = 64ull * 1024 * 1024;
};

// The paper's motivating back-office workload: an edge PoP serving user
// requests from an LRU cache, fetching misses from an origin PoP over the
// WAN. Cache hits are free; every miss is a fresh-ish TCP transfer whose
// completion time Riptide's learned initial windows cut down. The origin
// host runs a ProbeServer; fetches use one persistent connection to it,
// plus fresh ones when misses overlap — the connection-churn pattern
// Riptide targets.
class CacheFillWorkload {
 public:
  CacheFillWorkload(sim::Simulator& sim, host::Host& edge, int edge_pop,
                    host::Host& origin, int origin_pop, double base_rtt_ms,
                    CacheFillConfig config, MetricsCollector& metrics,
                    sim::Rng& rng);

  void start();

  const LruCache& cache() const { return cache_; }
  std::uint64_t requests() const { return requests_; }
  std::uint64_t fetches_completed() const { return fetches_completed_; }

  // Size (bytes) of catalog object `id`, deterministic across runs.
  std::uint64_t object_bytes(std::uint64_t id) const;

 private:
  struct Fetch;

  // One origin connection, shared between the fetch currently using it and
  // the single-slot idle pool (same ownership discipline as ProbeClient).
  struct ConnCtx {
    tcp::TcpConnection* conn = nullptr;
    Fetch* owner = nullptr;
    bool dead = false;
  };

  struct Fetch {
    std::uint64_t id = 0;
    std::uint64_t bytes = 0;
    std::uint64_t received = 0;
    sim::Time started;
    bool fresh = false;
    bool done = false;
    std::shared_ptr<ConnCtx> ctx;
  };

  void schedule_next_request();
  void on_request();
  void start_fetch(std::uint64_t id);
  void finish_fetch(Fetch& fetch);
  tcp::TcpConnection::Callbacks callbacks_for(std::shared_ptr<ConnCtx> ctx);
  bool fetch_in_flight(std::uint64_t id) const;

  sim::Simulator& sim_;
  host::Host& edge_;
  int edge_pop_;
  host::Host& origin_;
  int origin_pop_;
  double base_rtt_ms_;
  CacheFillConfig config_;
  MetricsCollector& metrics_;
  sim::Rng& rng_;
  ZipfDistribution popularity_;
  LruCache cache_;

  // Idle origin connection (capacity 1); overlapping misses open fresh
  // connections.
  std::shared_ptr<ConnCtx> pooled_;
  std::deque<std::unique_ptr<Fetch>> fetches_;

  std::uint64_t requests_ = 0;
  std::uint64_t fetches_completed_ = 0;
  bool started_ = false;
};

}  // namespace riptide::cdn
