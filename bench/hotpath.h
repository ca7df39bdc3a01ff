#pragma once

// Packet-rate driver behind bench_micro's --hotpath-json mode. Two
// workloads, both full TCP over simulated links, and one machine-readable
// JSON line so successive PRs can track the segment hot path:
//
//   bulk     - N concurrent bulk transfers over a fast lossy link; the
//              steady-state data/ACK/SACK churn that dominates experiment
//              wall-clock. Reports segments per wall-clock second.
//   fig6     - repeated fresh-connection 100 KB transfers (the paper's
//              Fig. 6 transfer-time workload). Reports per-transfer
//              segment heap allocations, the number the pooled-segment
//              refactor is accountable to.
//
// Only public Host/Link/TcpConnection APIs are used, so the same driver
// links against either segment-allocation strategy — numbers are
// apples-to-apples across PRs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "host/host.h"
#include "net/link.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "stats/perf.h"
#include "tcp/config.h"
#include "tcp/connection.h"

namespace riptide::bench {

struct HotpathResult {
  // bulk workload
  double bulk_wall_seconds = 0.0;
  double segments_per_sec = 0.0;  // segments built per wall-clock second
  double events_per_sec = 0.0;
  perf::Counters bulk;  // counter deltas for the bulk run
  // fig6 workload
  std::uint64_t fig6_transfers = 0;
  double fig6_allocs_per_transfer = 0.0;  // segment heap allocs / transfer
  perf::Counters fig6;  // counter deltas for the fig6 run
};

namespace hotpath_detail {

inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace hotpath_detail

// N concurrent bulk transfers across a shared 10 Gb/s, 5 ms link with
// 0.2% random loss: loss keeps the SACK scoreboard and retransmission
// machinery live, so the bench covers the allocation-heavy paths (data,
// ACK, SACK-carrying ACK, retransmit) rather than only the happy path.
//
// One untimed warm-up pass runs first and the reported wall is the best
// of `reps` timed passes: the first pass through a freshly exec'd binary
// pays demand paging and branch-training costs that can double its wall
// time, and best-of-N over a warmed process is the stable steady-state
// number. Counter deltas are taken over the timed passes and divided by
// `reps` (the workload is deterministic, so per-pass counts are exact).
inline void run_hotpath_bulk_once(int connections,
                                  std::uint64_t bytes_per_connection) {
  sim::Simulator sim;
  sim::Rng rng(7);
  tcp::TcpConfig config;
  config.sack = true;
  host::Host a(sim, "a", net::Ipv4Address(10, 0, 0, 1), config);
  host::Host b(sim, "b", net::Ipv4Address(10, 0, 0, 2), config);
  net::Link ab(sim, {1e10, sim::Time::milliseconds(5), 4096, 0.002, "ab"}, b,
               &rng);
  net::Link ba(sim, {1e10, sim::Time::milliseconds(5), 4096, 0.002, "ba"}, a,
               &rng);
  a.attach_uplink(ab);
  b.attach_uplink(ba);
  b.listen(80, [](tcp::TcpConnection&) {});

  for (int i = 0; i < connections; ++i) {
    auto& conn = a.connect(b.address(), 80, {});
    conn.send(bytes_per_connection);
    conn.close();
  }
  sim.run();
}

inline void run_hotpath_bulk(HotpathResult& out, int connections = 32,
                             std::uint64_t bytes_per_connection = 4'000'000,
                             int reps = 3) {
  run_hotpath_bulk_once(connections, bytes_per_connection);  // warm-up

  const perf::Counters before = perf::local();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double start = hotpath_detail::now_seconds();
    run_hotpath_bulk_once(connections, bytes_per_connection);
    const double wall = hotpath_detail::now_seconds() - start;
    if (r == 0 || wall < best) best = wall;
  }
  out.bulk_wall_seconds = best;
  out.bulk = perf::local().delta_since(before);
  out.bulk.segments_allocated /= static_cast<std::uint64_t>(reps);
  out.bulk.segments_recycled /= static_cast<std::uint64_t>(reps);
  out.bulk.segment_heap_allocs /= static_cast<std::uint64_t>(reps);
  out.bulk.events_dispatched /= static_cast<std::uint64_t>(reps);
  out.bulk.events_cascaded /= static_cast<std::uint64_t>(reps);
  out.bulk.timer_buckets_dispatched /= static_cast<std::uint64_t>(reps);
  out.bulk.packets_queued /= static_cast<std::uint64_t>(reps);
  out.bulk.bytes_queued /= static_cast<std::uint64_t>(reps);
  out.segments_per_sec =
      static_cast<double>(out.bulk.segments_allocated) / out.bulk_wall_seconds;
  out.events_per_sec =
      static_cast<double>(out.bulk.events_dispatched) / out.bulk_wall_seconds;
}

// The Fig. 6 shape: a fresh connection per transfer, 100 KB each, over a
// WAN-ish 50 ms path. What matters here is not wall-clock but how many
// heap allocations one transfer costs.
inline void run_hotpath_fig6(HotpathResult& out, int transfers = 200,
                             std::uint64_t transfer_bytes = 100'000) {
  sim::Simulator sim;
  sim::Rng rng(11);
  tcp::TcpConfig config;
  config.sack = true;
  host::Host a(sim, "a", net::Ipv4Address(10, 1, 0, 1), config);
  host::Host b(sim, "b", net::Ipv4Address(10, 1, 0, 2), config);
  net::Link ab(sim, {1e9, sim::Time::milliseconds(50), 2048, 0.001, "ab"}, b,
               &rng);
  net::Link ba(sim, {1e9, sim::Time::milliseconds(50), 2048, 0.001, "ba"}, a,
               &rng);
  a.attach_uplink(ab);
  b.attach_uplink(ba);
  b.listen(80, [](tcp::TcpConnection&) {});

  const perf::Counters before = perf::local();
  for (int i = 0; i < transfers; ++i) {
    auto& conn = a.connect(b.address(), 80, {});
    conn.send(transfer_bytes);
    conn.close();
    sim.run();  // drain this transfer (and its teardown) completely
  }
  out.fig6 = perf::local().delta_since(before);
  out.fig6_transfers = static_cast<std::uint64_t>(transfers);
  out.fig6_allocs_per_transfer =
      static_cast<double>(out.fig6.segment_heap_allocs) / transfers;
}

inline HotpathResult measure_hotpath() {
  HotpathResult out;
  run_hotpath_bulk(out);
  run_hotpath_fig6(out);
  return out;
}

inline void print_hotpath_json(const HotpathResult& r,
                               const char* build_label) {
  std::printf(
      "{\"bench\":\"hotpath\",\"build\":\"%s\","
      "\"segments_per_sec\":%.0f,"
      "\"events_per_sec\":%.0f,"
      "\"bulk_wall_seconds\":%.4f,"
      "\"fig6_transfers\":%llu,"
      "\"fig6_allocs_per_transfer\":%.2f,"
      "\"bulk_counters\":%s,"
      "\"fig6_counters\":%s}\n",
      build_label, r.segments_per_sec, r.events_per_sec, r.bulk_wall_seconds,
      static_cast<unsigned long long>(r.fig6_transfers),
      r.fig6_allocs_per_transfer, perf::to_json(r.bulk).c_str(),
      perf::to_json(r.fig6).c_str());
}

}  // namespace riptide::bench
