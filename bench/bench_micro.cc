// Microbenchmarks (google-benchmark) for the hot paths of the simulator
// and the Riptide agent: event-queue throughput, longest-prefix-match
// lookups, the agent's poll loop against a host with many connections, and
// quantile extraction used by the analysis pipeline.
//
// `bench_micro --queue-json` skips google-benchmark and instead runs the
// event-queue throughput driver (schedule/fire, schedule/cancel,
// RTO-rearm, multi-timer rearm churn, far-future) and prints one
// machine-readable JSON row per workload, so successive PRs can track the
// event-loop trajectory. See queue_throughput.h.

#include <benchmark/benchmark.h>

#include <cstring>

#include "core/agent.h"
#include "host/routing_table.h"
#include "model/transfer_model.h"
#include "net/link.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "stats/cdf.h"
#include "tcp/connection.h"
#include "hotpath.h"
#include "queue_throughput.h"

namespace {

using namespace riptide;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sum = 0;
    for (int i = 0; i < events; ++i) {
      sim.schedule(sim::Time::microseconds(i % 1000), [&sum] { ++sum; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(100000);

// Events scheduled then cancelled before firing: delayed-ACK / pacing
// timer churn. Exercises handle issue + generation-bump cancellation.
void BM_SimulatorScheduleCancel(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::vector<sim::EventHandle> handles(
      static_cast<std::size_t>(events));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < events; ++i) {
      handles[static_cast<std::size_t>(i)] =
          sim.schedule(sim::Time::microseconds(i % 1000 + 1), [] {});
    }
    for (auto& h : handles) h.cancel();
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleCancel)->Arg(1000)->Arg(100000);

// The RTO pattern: one timer rearmed per ACK while live short-delay events
// keep the queue head busy. Under the timer wheel each rearm is an O(1)
// unlink + O(1) re-insert; the old heap let the cancelled entries pile up
// deep in the queue until compaction reclaimed them.
void BM_SimulatorRtoRearm(benchmark::State& state) {
  const int acks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::EventHandle rto;
    std::uint64_t fired = 0;
    for (int i = 0; i < acks; ++i) {
      rto.cancel();
      rto = sim.schedule(sim::Time::milliseconds(200), [&fired] { ++fired; });
      sim.schedule(sim::Time::microseconds(100), [&fired] { ++fired; });
      if (i % 64 == 0) {
        sim.run_until(sim.now() + sim::Time::microseconds(10));
      }
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * acks);
}
BENCHMARK(BM_SimulatorRtoRearm)->Arg(100000);

// Periodic timers: slot reuse across firings (no realloc, no rescheduling
// lambda chain).
void BM_SimulatorPeriodic(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fires = 0;
    for (int i = 0; i < timers; ++i) {
      sim.schedule_periodic(sim::Time::microseconds(i % 100),
                            sim::Time::milliseconds(1),
                            [&fires] { ++fires; });
    }
    sim.run_until(sim::Time::milliseconds(100));
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() * timers * 100);
}
BENCHMARK(BM_SimulatorPeriodic)->Arg(100);

void BM_RoutingTableLookup(benchmark::State& state) {
  const int routes = static_cast<int>(state.range(0));
  host::RoutingTable table;
  for (int i = 0; i < routes; ++i) {
    table.add_or_replace(
        net::Prefix(net::Ipv4Address(10, static_cast<std::uint8_t>(i % 200),
                                     static_cast<std::uint8_t>(i / 200), 0),
                    24),
        host::RouteMetrics{50, 100});
  }
  std::uint32_t x = 1;
  for (auto _ : state) {
    x = x * 1664525u + 1013904223u;
    benchmark::DoNotOptimize(table.lookup(net::Ipv4Address(x)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingTableLookup)->Arg(16)->Arg(256)->Arg(2048);

void BM_CdfQuantile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    stats::Cdf cdf;
    for (int i = 0; i < n; ++i) cdf.add(rng.uniform(0, 1000));
    state.ResumeTiming();
    benchmark::DoNotOptimize(cdf.percentile(50));
    benchmark::DoNotOptimize(cdf.percentile(99));
  }
}
BENCHMARK(BM_CdfQuantile)->Arg(1000)->Arg(100000);

void BM_TransferModel(benchmark::State& state) {
  std::uint64_t size = 1000;
  for (auto _ : state) {
    size = (size * 7919) % 10'000'000 + 100;
    benchmark::DoNotOptimize(
        model::rtts_for_transfer(size, model::ModelParams{1460, 10}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransferModel);

// The agent's full Algorithm-1 iteration against a host carrying many
// established connections — the per-i_u cost the paper's §V "Overhead"
// discusses.
void BM_AgentPoll(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));

  sim::Simulator sim;
  host::Host a(sim, "a", net::Ipv4Address(10, 0, 0, 1));
  host::Host b(sim, "b", net::Ipv4Address(10, 0, 1, 1));
  sim::Rng rng(1);
  net::Link ab(sim, {1e10, sim::Time::microseconds(100), 1 << 16, 0, "ab"}, b,
               &rng);
  net::Link ba(sim, {1e10, sim::Time::microseconds(100), 1 << 16, 0, "ba"}, a,
               &rng);
  a.attach_uplink(ab);
  b.attach_uplink(ba);
  b.listen(80, [](tcp::TcpConnection&) {});
  for (int i = 0; i < conns; ++i) {
    a.connect(b.address(), 80, {});
  }
  sim.run_until(sim::Time::seconds(2));

  core::RiptideConfig config;
  core::RiptideAgent agent(sim, a, config);
  for (auto _ : state) {
    agent.poll_once();
  }
  state.SetItemsProcessed(state.iterations() * conns);
}
BENCHMARK(BM_AgentPoll)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
#ifdef __OPTIMIZE__
  const char* build = "optimized";
#else
  const char* build = "unoptimized";
#endif
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queue-json") == 0) {
      riptide::bench::print_queue_throughput_json(
          riptide::bench::measure_queue_throughput(), build);
      return 0;
    }
    if (std::strcmp(argv[i], "--hotpath-json") == 0) {
      riptide::bench::print_hotpath_json(riptide::bench::measure_hotpath(),
                                         build);
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
