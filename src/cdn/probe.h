#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "cdn/metrics.h"
#include "host/host.h"
#include "net/ipv4.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace riptide::cdn {

// One probe flavour: a fixed-size object. The paper runs 10, 50 and 100 KB
// probes simultaneously (§IV-A).
struct ProbeSpec {
  std::uint64_t object_bytes = 0;
};

// The paper's 10/50/100 KB probe set.
std::vector<ProbeSpec> default_probe_specs();

// Serves probe objects on kPort. The protocol mirrors an HTTP GET whose
// URL names the object: the request's byte-length encodes the object size
// (object = request_bytes * kScale). Requests are never pipelined by the
// client, so each in-order delivery is one request.
//
// The sender side of the response is where Riptide's learned initcwnd does
// its work.
class ProbeServer {
 public:
  static constexpr std::uint16_t kPort = 9000;
  static constexpr std::uint32_t kScale = 1000;

  explicit ProbeServer(host::Host& host);

  void start();

  std::uint64_t objects_served() const { return objects_served_; }
  std::uint64_t bytes_served() const { return bytes_served_; }

 private:
  host::Host& host_;
  std::uint64_t objects_served_ = 0;
  std::uint64_t bytes_served_ = 0;
  bool started_ = false;
};

// A probe target: one remote host serving the probe port.
struct ProbeTarget {
  net::Ipv4Address address;
  int pop = -1;
  double base_rtt_ms = 0.0;
};

struct ProbeClientConfig {
  std::vector<ProbeSpec> specs = default_probe_specs();

  // Mean period between probes of one (target, flavour) pair, with
  // +-interval_jitter uniform jitter per round so the three flavours race
  // for the shared idle connection in varying order (as in production,
  // where whichever probe fires first reuses the idle connection).
  sim::Time interval = sim::Time::seconds(10);
  double interval_jitter = 0.25;

  // Keep-alive timeout: a pooled idle connection is closed after this long
  // without a probe.
  sim::Time idle_close = sim::Time::seconds(30);

  // Fresh connections that don't fit in the pool stay open (idle) this
  // long before closing — the paper's "connections that were opened but
  // not used again", which is what the 1 s `ss` poll actually observes and
  // what produces the Fig 10 modes at each connection's initial window.
  sim::Time extra_linger = sim::Time::seconds(20);
};

// Issues probes from one host to a set of targets, mirroring the paper's
// diagnostic mesh (§IV-A): every round, for every (target, flavour) pair,
// it reuses the target's idle pooled connection when one exists — the pool
// holds at most ONE connection per target, the paper's "an existing and
// idle connection" — and opens a fresh one otherwise. Fresh connections
// are returned to the pool after the probe (or closed if the slot is
// taken). Completion time (request out -> last byte in, including the
// handshake for fresh connections) lands in the collector.
class ProbeClient {
 public:
  ProbeClient(sim::Simulator& sim, host::Host& host, int src_pop,
              std::vector<ProbeTarget> targets, ProbeClientConfig config,
              MetricsCollector& metrics, sim::Rng& rng);

  void start();

  std::uint64_t probes_completed() const { return completed_; }
  std::uint64_t probes_failed() const { return failed_; }
  std::uint64_t probes_skipped_busy() const { return skipped_busy_; }
  std::uint64_t fresh_connections_opened() const { return fresh_opened_; }
  std::uint64_t reuses() const { return reused_; }

  // Accounting surface for the chaos liveness oracle: every probe launched
  // must end up completed, failed, or still visibly in flight —
  //   probes_issued() == probes_completed() + probes_failed() + in_flight()
  // holds at all times, and an in-flight probe whose connection has died
  // without the client noticing shows up in stalled_probes().
  std::uint64_t probes_issued() const { return issued_; }
  std::size_t probes_in_flight() const;
  std::size_t stalled_probes() const;

 private:
  struct Task;

  // One live connection, shared between the task currently using it and
  // the per-target idle pool.
  struct ConnState {
    tcp::TcpConnection* conn = nullptr;
    net::Ipv4Address target;
    Task* owner = nullptr;  // task currently being served, if any
    bool dead = false;
    sim::EventHandle idle_timer;
  };

  struct Task {
    ProbeTarget target;
    ProbeSpec spec;
    bool busy = false;
    std::uint64_t received = 0;
    sim::Time started;
    bool fresh = false;
    std::shared_ptr<ConnState> active;
  };

  // All of one target's probe flavours fire together each round (the paper
  // issues the three sizes simultaneously): exactly one can claim the
  // pooled idle connection; the rest open fresh ones. The within-round
  // order is shuffled so every flavour gets its share of reuses.
  struct Round {
    std::vector<Task*> tasks;
  };

  void schedule_next(Round& round);
  void fire_round(Round& round);
  void fire(Task& task);
  void open_fresh(Task& task);
  tcp::TcpConnection::Callbacks callbacks_for(std::shared_ptr<ConnState> st);
  void complete(Task& task);
  void release_to_pool(std::shared_ptr<ConnState> st);
  std::uint32_t request_bytes_for(const ProbeSpec& spec) const;

  sim::Simulator& sim_;
  host::Host& host_;
  int src_pop_;
  ProbeClientConfig config_;
  MetricsCollector& metrics_;
  sim::Rng& rng_;
  std::deque<Task> tasks_;  // deque: stable addresses for callback capture
  std::deque<Round> rounds_;  // one per target
  // Idle slot per target (capacity 1, per the paper's reuse policy).
  std::map<std::uint32_t, std::shared_ptr<ConnState>> pool_;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t skipped_busy_ = 0;
  std::uint64_t fresh_opened_ = 0;
  std::uint64_t reused_ = 0;
  bool started_ = false;
};

}  // namespace riptide::cdn
