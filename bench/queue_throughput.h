#pragma once

// Event-queue throughput driver behind bench_micro's --queue-json mode.
// Exercises the simulator hot patterns the experiment workload is made of
// and reports one machine-readable JSON row per workload (JSONL), so
// successive PRs can track the event-loop trajectory and
// tools/bench_diff.py can diff two captures workload by workload:
//
//   schedule_fire   - one-shot events scheduled and drained in batches
//                     (the probe/packet delivery path)
//   schedule_cancel - events scheduled then cancelled before firing
//                     (delayed-ACK and pacing timers)
//   rto_rearm       - a retransmission timer cancelled and rearmed on
//                     every simulated ACK (the lazy-cancellation pattern
//                     that used to bloat the heap)
//   rearm_churn     - a fleet of concurrent RTO timers, each ACK
//                     cancelling and re-arming one of them: the
//                     schedule/cancel/reschedule churn a busy host's
//                     connection table generates
//   far_future      - events scheduled ~a year out, half cancelled, the
//                     rest drained: exercises the wheel's top levels and
//                     their cascades end to end
//
// Only the public Simulator API is used, so the same driver builds
// against older simulators too — numbers are apples-to-apples across
// PRs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "sim/simulator.h"
#include "stats/perf.h"

namespace riptide::bench {

namespace detail {
inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}
}  // namespace detail

// One bench workload's measurement: rate, peak queue footprint, and the
// perf-counter delta accumulated while it ran (events_cascaded shows how
// much of the work was redistribution between wheel levels).
struct QueueWorkloadResult {
  const char* workload = "";
  double ops_per_sec = 0.0;
  std::size_t peak_pending = 0;
  perf::Counters counters;
};

struct QueueThroughput {
  std::vector<QueueWorkloadResult> workloads;
};

inline QueueThroughput measure_queue_throughput(std::size_t total_ops =
                                                    2'000'000) {
  QueueThroughput out;
  const std::size_t batch = 10'000;

  {
    // schedule_fire: realistic queue depth of `batch`, fully drained.
    sim::Simulator sim;
    std::uint64_t sink = 0;
    const perf::Counters before = perf::local();
    const double start = detail::now_seconds();
    for (std::size_t done = 0; done < total_ops; done += batch) {
      for (std::size_t i = 0; i < batch; ++i) {
        sim.schedule(sim::Time::microseconds(static_cast<std::int64_t>(i)),
                     [&sink] { ++sink; });
      }
      sim.run();
    }
    const double elapsed = detail::now_seconds() - start;
    if (sink != total_ops) std::fprintf(stderr, "queue bench: bad sink\n");
    out.workloads.push_back(
        {"schedule_fire", static_cast<double>(total_ops) / elapsed, batch,
         perf::local().delta_since(before)});
  }

  {
    // schedule_cancel: every event cancelled before it can fire.
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles(batch);
    const perf::Counters before = perf::local();
    const double start = detail::now_seconds();
    for (std::size_t done = 0; done < total_ops; done += batch) {
      for (std::size_t i = 0; i < batch; ++i) {
        handles[i] = sim.schedule(
            sim::Time::microseconds(static_cast<std::int64_t>(i + 1)), [] {});
      }
      for (auto& h : handles) h.cancel();
      sim.run();
    }
    const double elapsed = detail::now_seconds() - start;
    out.workloads.push_back(
        {"schedule_cancel", static_cast<double>(total_ops) / elapsed, batch,
         perf::local().delta_since(before)});
  }

  {
    // rto_rearm: one long-lived timer rearmed per simulated ACK, clock
    // creeping forward, with a stream of live short-delay events (the ACKs
    // themselves) keeping the queue head live — TCP's RTO pattern. A
    // scheduler with lazy cancellation accumulates the dead timers deep in
    // the queue where head-purging cannot reach them; eager unlink keeps
    // peak_pending at the live population.
    sim::Simulator sim;
    sim::EventHandle rto;
    std::uint64_t fired = 0;
    std::size_t peak = 0;
    const perf::Counters before = perf::local();
    const double start = detail::now_seconds();
    for (std::size_t i = 0; i < total_ops; ++i) {
      rto.cancel();
      rto = sim.schedule(sim::Time::milliseconds(200), [&fired] { ++fired; });
      sim.schedule(sim::Time::microseconds(100), [&fired] { ++fired; });
      if (i % 64 == 0) {
        if (sim.pending_events() > peak) peak = sim.pending_events();
        sim.run_until(sim.now() + sim::Time::microseconds(10));
      }
    }
    if (sim.pending_events() > peak) peak = sim.pending_events();
    sim.run();
    const double elapsed = detail::now_seconds() - start;
    out.workloads.push_back({"rto_rearm",
                             static_cast<double>(total_ops) / elapsed, peak,
                             perf::local().delta_since(before)});
  }

  {
    // rearm_churn: kTimers concurrent RTO timers (one per connection on a
    // busy host), every simulated ACK cancelling and re-arming one of them
    // round-robin while the clock creeps. Unlike rto_rearm's single hot
    // timer, the dead entries here are spread across the whole 200 ms
    // lookahead — the worst case for lazy cancellation, the best case for
    // O(1) intrusive unlink.
    constexpr std::size_t kTimers = 1024;
    sim::Simulator sim;
    std::vector<sim::EventHandle> timers(kTimers);
    std::uint64_t fired = 0;
    std::size_t peak = 0;
    const perf::Counters before = perf::local();
    const double start = detail::now_seconds();
    for (std::size_t i = 0; i < total_ops; ++i) {
      sim::EventHandle& t = timers[i % kTimers];
      t.cancel();
      t = sim.schedule(sim::Time::milliseconds(200), [&fired] { ++fired; });
      if (i % 256 == 0) {
        if (sim.pending_events() > peak) peak = sim.pending_events();
        sim.run_until(sim.now() + sim::Time::microseconds(50));
      }
    }
    if (sim.pending_events() > peak) peak = sim.pending_events();
    sim.run();
    const double elapsed = detail::now_seconds() - start;
    out.workloads.push_back({"rearm_churn",
                             static_cast<double>(total_ops) / elapsed, peak,
                             perf::local().delta_since(before)});
  }

  {
    // far_future: events scheduled ~a year out — past 2^54 ns, so they
    // land in the wheel's top levels — then half cancelled and the rest
    // drained, cascading down through every level below. One "op" is one
    // schedule, one cancel, or one fire.
    const std::size_t n = total_ops / 2;
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles(n);
    std::uint64_t fired = 0;
    std::size_t peak = 0;
    const perf::Counters before = perf::local();
    const double start = detail::now_seconds();
    for (std::size_t i = 0; i < n; ++i) {
      handles[i] = sim.schedule(
          sim::Time::seconds(30'000'000) +
              sim::Time::microseconds(static_cast<std::int64_t>(i)),
          [&fired] { ++fired; });
    }
    peak = sim.pending_events();
    for (std::size_t i = 0; i < n; i += 2) handles[i].cancel();
    sim.run();
    const double elapsed = detail::now_seconds() - start;
    if (fired != n - (n + 1) / 2) {
      std::fprintf(stderr, "queue bench: bad far_future fire count\n");
    }
    out.workloads.push_back({"far_future",
                             static_cast<double>(2 * n) / elapsed, peak,
                             perf::local().delta_since(before)});
  }

  return out;
}

// One JSON object per workload, newline-separated (JSONL).
// tools/bench_diff.py understands this shape and keys metrics by workload
// name.
inline void print_queue_throughput_json(const QueueThroughput& t,
                                        const char* build_label) {
  for (const QueueWorkloadResult& w : t.workloads) {
    std::printf(
        "{\"bench\":\"event_queue\",\"workload\":\"%s\",\"build\":\"%s\","
        "\"ops_per_sec\":%.0f,\"peak_pending\":%zu,\"counters\":%s}\n",
        w.workload, build_label, w.ops_per_sec, w.peak_pending,
        perf::to_json(w.counters).c_str());
  }
}

}  // namespace riptide::bench
