#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench_util.h"
#include "persist/crc32.h"
#include "runner/parallel_runner.h"
#include "runner/task_pool.h"
#include "stats/perf.h"

namespace perfbench {

namespace cdn = riptide::cdn;
namespace host = riptide::host;
namespace perf = riptide::perf;
namespace runner = riptide::runner;
using riptide::sim::Time;

namespace {

// tests/determinism_test.cc pins golden_config(42) to this fingerprint.
constexpr std::uint32_t kGoldenCrc = 0x1B61F592;

// churn_mesh costs about a fifth of paper_mesh per simulated second, so it
// simulates longer to carry a comparable share of wall time.
constexpr Time kChurnDuration = Time::minutes(10);

// Route-lookup probe: batches of rounds over every (host, peer) pair.
constexpr int kLookupBatches = 7;
constexpr int kLookupRounds = 50;

volatile std::uintptr_t lookup_sink = 0;

// Runs `fn` on a new thread and waits for it, so thread-local state (the
// segment pool, perf counters) starts empty and dies with the run.
template <typename Fn>
void on_fresh_thread(Fn&& fn) {
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
}

cdn::ExperimentConfig mesh(bool agent, std::uint64_t seed) {
  cdn::ExperimentConfig config = riptide::bench::paper_world(agent, seed);
  config.topology.seed = seed;
  return config;
}

void add_counts(cdn::Experiment& experiment, const perf::Counters& delta,
                Counts& counts) {
  counts.events += delta.events_dispatched;
  counts.packets += delta.packets_queued;
  counts.segments += delta.segments_allocated;
  counts.pool_high_water =
      std::max(counts.pool_high_water, delta.segment_pool_high_water);
  const auto drops = experiment.topology().drop_totals();
  counts.drops += drops.queue_full + drops.random_loss;
  for (const host::Host* h : experiment.topology().all_hosts()) {
    counts.connections_opened += h->stats().connections_opened;
  }
  counts.retransmissions += experiment.topology().total_retransmissions();
  counts.timeouts += experiment.topology().total_timeouts();
  for (const auto& agent : experiment.agents()) {
    counts.routes_expired += agent->stats().routes_expired;
  }
  for (const auto& client : experiment.probe_clients()) {
    counts.probes_issued += client->probes_issued();
    counts.probes_completed += client->probes_completed();
    counts.probes_failed += client->probes_failed();
  }
}

void fail(std::vector<std::string>& failed, const char* check) {
  if (std::find(failed.begin(), failed.end(), check) == failed.end()) {
    failed.emplace_back(check);
  }
}

// Every probe is completed, failed or still in flight, and every client
// completed some.
void check_probes(const cdn::Experiment& experiment,
                  std::vector<std::string>& failed) {
  if (experiment.probe_clients().empty()) fail(failed, "probes_completed");
  for (const auto& client : experiment.probe_clients()) {
    if (client->probes_issued() != client->probes_completed() +
                                       client->probes_failed() +
                                       client->probes_in_flight()) {
      fail(failed, "probe_accounting");
    }
    if (client->probes_completed() == 0) fail(failed, "probes_completed");
  }
}

// Looks up every peer in every host's final table.
RouteProbe probe_routes(cdn::Experiment& experiment) {
  const std::vector<host::Host*> hosts = experiment.topology().all_hosts();
  RouteProbe probe;
  for (const host::Host* h : hosts) {
    probe.mean_routes += static_cast<double>(h->routing_table().size());
  }
  probe.mean_routes /= static_cast<double>(hosts.size());

  std::uintptr_t sink = 0;
  std::vector<double> batch_ns;
  for (int batch = 0; batch < kLookupBatches; ++batch) {
    std::uint64_t lookups = 0;
    const auto start = Clock::now();
    for (int round = 0; round < kLookupRounds; ++round) {
      for (const host::Host* h : hosts) {
        for (const host::Host* peer : hosts) {
          if (peer == h) continue;
          sink ^= reinterpret_cast<std::uintptr_t>(
              h->routing_table().lookup(peer->address()));
          ++lookups;
        }
      }
    }
    batch_ns.push_back(seconds_since(start) * 1e9 /
                       static_cast<double>(lookups));
  }
  lookup_sink = sink;
  probe.lookup_ns = median(batch_ns);
  return probe;
}

// The fig15/16 analysis of bench_fig15_16_percentile: per-destination
// percentile gains of treatment over control, merged across seeds and
// averaged across destinations, for 50/100 KB probes from lon and nyc.
// Returns the gains serialised for the fingerprint.
std::string fig15_16_gains(const std::vector<runner::RunResult>& results,
                           std::vector<std::string>& failed) {
  std::vector<const cdn::Experiment*> treatment, control;
  for (const auto& result : results) {
    (result.index % 2 == 0 ? treatment : control)
        .push_back(result.experiment.get());
  }
  const auto merged = [](const std::vector<const cdn::Experiment*>& runs,
                         int src, std::uint64_t size, int dst) {
    riptide::stats::Cdf cdf;
    for (const cdn::Experiment* run : runs) {
      cdf.add_all(run->probe_cdf(src, size, dst).sorted_samples());
    }
    return cdf;
  };
  const auto& specs = treatment.front()->config().pop_specs;
  const int pops = static_cast<int>(specs.size());
  std::string out;
  char line[128];
  for (std::uint64_t size : {50'000u, 100'000u}) {
    for (const char* name : {"lon", "nyc"}) {
      const int src = riptide::bench::find_pop(specs, name);
      std::map<double, std::pair<double, int>> accum;  // pct -> (sum, n)
      for (int dst = 0; dst < pops; ++dst) {
        if (dst == src) continue;
        const auto with = merged(treatment, src, size, dst);
        const auto without = merged(control, src, size, dst);
        if (with.count() < 10 || without.count() < 10) continue;
        for (const auto& gain : cdn::percentile_gains(without, with, 5.0)) {
          auto& slot = accum[gain.percentile];
          slot.first += gain.gain_fraction;
          ++slot.second;
        }
      }
      if (src < 0 || accum.empty()) fail(failed, "gains_computed");
      for (const auto& [pct, slot] : accum) {
        const double gain = slot.first / slot.second;
        if (!std::isfinite(gain)) fail(failed, "gains_computed");
        std::snprintf(line, sizeof line, "G,%" PRIu64 ",%s,%.0f,%.17g\n",
                      size, name, pct, gain);
        out += line;
      }
    }
  }
  return out;
}

RunStats run_sweep(std::uint64_t seed, RunMode mode) {
  RunStats out;
  on_fresh_thread([&] {
    std::vector<cdn::ExperimentConfig> configs =
        workload_configs(Workload::kSeedSweep, seed);
    const std::size_t n = configs.size();
    std::deque<SpanRecorder> spans;
    std::vector<double> setup_at(n, 0.0);
    Clock::time_point start;
    std::vector<runner::RunSpec> specs(n);
    for (std::size_t i = 0; i < n; ++i) {
      spans.emplace_back(static_cast<std::int32_t>(i));
      specs[i].label = "run" + std::to_string(i);
      specs[i].config = std::move(configs[i]);
      if (mode.traced) instrument(specs[i].config, spans[i]);
      specs[i].setup = [&, i](cdn::Experiment& experiment) {
        setup_at[i] = seconds_since(start);
        if (mode.traced) hook_agents(experiment, spans[i]);
      };
    }
    const unsigned workers = run_threads(Workload::kSeedSweep);

    start = Clock::now();
    const std::vector<runner::RunResult> results =
        runner::ParallelRunner(workers).run(std::move(specs));
    const double sweep_s = seconds_since(start);
    const auto analysis = Clock::now();
    const std::string gains = fig15_16_gains(results, out.failed_checks);
    out.sweep.report_s = seconds_since(analysis);
    out.run_s = seconds_since(start);

    out.sweep.workers = workers;
    std::uint32_t crc = 0;
    for (const auto& result : results) {
      cdn::Experiment& experiment = *result.experiment;
      out.exp_wall_s += result.wall_seconds;
      out.sweep.max_run_s = std::max(out.sweep.max_run_s, result.wall_seconds);
      add_counts(experiment, result.perf, out.counts);
      check_probes(experiment, out.failed_checks);
      crc = riptide::persist::crc32(serialize_metrics(experiment), crc);
      if (mode.probe_routes) {
        const RouteProbe p = probe_routes(experiment);
        out.routes.mean_routes += p.mean_routes / static_cast<double>(n);
        out.routes.lookup_ns += p.lookup_ns / static_cast<double>(n);
      }
    }
    out.fingerprint = riptide::persist::crc32(gains, crc);
    for (double at : setup_at) {
      out.sweep.queue_wait_s += at / static_cast<double>(n);
    }
    out.sweep.parallel_efficiency = out.exp_wall_s / (workers * sweep_s);
    if (mode.traced) {
      for (SpanRecorder& recorder : spans) {
        out.spans.push_back(std::move(recorder.spans()));
      }
    }
  });
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "paper_mesh") return Workload::kPaperMesh;
  if (name == "control_mesh") return Workload::kControlMesh;
  if (name == "churn_mesh") return Workload::kChurnMesh;
  if (name == "seed_sweep") return Workload::kSeedSweep;
  return std::nullopt;
}

std::vector<cdn::ExperimentConfig> workload_configs(Workload workload,
                                                    std::uint64_t seed) {
  switch (workload) {
    case Workload::kPaperMesh:
      return {mesh(true, seed)};
    case Workload::kControlMesh:
      return {mesh(false, seed)};
    case Workload::kChurnMesh: {
      cdn::ExperimentConfig config = mesh(true, seed);
      config.probe.interval = Time::seconds(20);
      config.probe.idle_close = Time::seconds(2);
      config.probe.extra_linger = Time::seconds(2);
      config.riptide.ttl = Time::seconds(8);
      config.duration = kChurnDuration;
      return {config};
    }
    case Workload::kSeedSweep: {
      // bench_fig15_16_percentile's layout: seed-major, treatment first.
      std::vector<cdn::ExperimentConfig> configs;
      for (std::uint64_t s : {seed, seed + 1}) {
        for (bool agent : {true, false}) {
          cdn::ExperimentConfig config = mesh(agent, s);
          config.duration = Time::minutes(4);
          configs.push_back(config);
        }
      }
      return configs;
    }
  }
  return {};
}

unsigned run_threads(Workload workload) {
  if (workload != Workload::kSeedSweep) return 1;
  constexpr std::size_t kSweepRuns = 4;  // as workload_configs lays out
  return runner::effective_threads(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())),
      kSweepRuns);
}

RunStats run_config(const cdn::ExperimentConfig& base, RunMode mode) {
  RunStats out;
  on_fresh_thread([&] {
    SpanRecorder spans(0);
    cdn::ExperimentConfig config = base;
    if (mode.traced) instrument(config, spans);
    const perf::Counters before = perf::local();
    cdn::Experiment experiment(std::move(config));
    if (mode.traced) hook_agents(experiment, spans);
    const auto start = Clock::now();
    experiment.run();
    out.run_s = seconds_since(start);
    out.exp_wall_s = out.run_s;
    add_counts(experiment, perf::local().delta_since(before), out.counts);
    check_probes(experiment, out.failed_checks);
    out.fingerprint = riptide::persist::crc32(serialize_metrics(experiment));
    if (mode.probe_routes) out.routes = probe_routes(experiment);
    if (mode.traced) out.spans.push_back(std::move(spans.spans()));
  });
  return out;
}

RunStats run_workload(Workload workload, std::uint64_t seed, RunMode mode) {
  if (workload == Workload::kSeedSweep) return run_sweep(seed, mode);
  return run_config(workload_configs(workload, seed).front(), mode);
}

double time_setup(const std::vector<cdn::ExperimentConfig>& configs) {
  std::vector<cdn::ExperimentConfig> copies = configs;
  std::vector<std::unique_ptr<cdn::Experiment>> worlds;
  worlds.reserve(copies.size());
  const auto start = Clock::now();
  for (auto& config : copies) {
    worlds.push_back(std::make_unique<cdn::Experiment>(std::move(config)));
  }
  return seconds_since(start);
}

std::string serialize_metrics(const cdn::Experiment& exp) {
  std::string out;
  out.reserve(1 << 16);
  char line[256];
  for (const auto& f : exp.metrics().flows()) {
    std::snprintf(line, sizeof line,
                  "F,%d,%d,%" PRIu64 ",%" PRId64 ",%" PRId64 ",%d,%.17g\n",
                  f.src_pop, f.dst_pop, f.object_bytes, f.started.ns(),
                  f.duration.ns(), f.fresh ? 1 : 0, f.base_rtt_ms);
    out += line;
  }
  for (const auto& s : exp.metrics().cwnd_samples()) {
    std::snprintf(line, sizeof line, "W,%d,%u,%" PRId64 "\n", s.pop,
                  s.cwnd_segments, s.at.ns());
    out += line;
  }
  for (const auto& agent : exp.agents()) {
    const auto& st = agent->stats();
    std::snprintf(line, sizeof line,
                  "A,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                  st.polls, st.connections_observed, st.routes_set,
                  st.routes_expired);
    out += line;
  }
  std::snprintf(line, sizeof line, "S,%" PRId64 "\n",
                exp.simulator().now().ns());
  out += line;
  return out;
}

cdn::ExperimentConfig golden_config(std::uint64_t seed) {
  cdn::ExperimentConfig config;
  config.pop_specs = {{"lon", cdn::Continent::kEurope, {51.51, -0.13}},
                      {"fra", cdn::Continent::kEurope, {50.11, 8.68}},
                      {"nyc", cdn::Continent::kNorthAmerica, {40.71, -74.01}},
                      {"tyo", cdn::Continent::kAsia, {35.68, 139.69}}};
  config.topology.hosts_per_pop = 1;
  config.topology.wan_loss_probability = 2e-4;
  config.topology.seed = seed;
  config.riptide_enabled = true;
  config.riptide.update_interval = Time::seconds(1);
  config.riptide.c_max = 100;
  config.probe.interval = Time::seconds(5);
  config.probe.idle_close = Time::seconds(10);
  config.duration = Time::seconds(60);
  config.cwnd_sample_interval = Time::seconds(10);
  config.seed = seed;
  return config;
}

bool golden_fingerprint_ok() {
  return run_config(golden_config(42), RunMode{}).fingerprint == kGoldenCrc;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

}  // namespace perfbench
