#pragma once

// Workloads, runs and output checks of the repository benchmark. A run
// drives only public entry points: cdn::Experiment, runner::ParallelRunner,
// the agent seams in trace.h, RoutingTable::lookup and perf::local().

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdn/experiment.h"
#include "trace.h"

namespace perfbench {

enum class Workload { kPaperMesh, kControlMesh, kChurnMesh, kSeedSweep };

std::optional<Workload> parse_workload(std::string_view name);

// The worlds one run of `workload` simulates, in run order. The seed feeds
// both ExperimentConfig::seed and topology.seed.
std::vector<riptide::cdn::ExperimentConfig> workload_configs(
    Workload workload, std::uint64_t seed);

// Threads one run of `workload` keeps busy: the sweep's runner workers,
// min(4, nproc), or 1.
unsigned run_threads(Workload workload);

// Exact counts of one run, summed over its experiments (the pool high-water
// mark is the maximum).
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t segments = 0;
  std::uint64_t drops = 0;
  std::uint64_t pool_high_water = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t routes_expired = 0;
  std::uint64_t probes_issued = 0;
  std::uint64_t probes_completed = 0;
  std::uint64_t probes_failed = 0;
};

// Sweep-only timings (runner and stats layers).
struct SweepTimes {
  unsigned workers = 0;
  double report_s = 0.0;      // probe_cdf + percentile_gains analysis
  double queue_wait_s = 0.0;  // mean, sweep start -> RunSpec::setup
  double max_run_s = 0.0;     // slowest RunResult::wall_seconds
  double parallel_efficiency = 0.0;
};

// The final routing tables, probed after a run.
struct RouteProbe {
  double mean_routes = 0.0;
  double lookup_ns = 0.0;
};

// What a run records besides its outputs and counts.
struct RunMode {
  bool traced = false;        // install the delegating timers (trace.h)
  bool probe_routes = false;  // time lookups against the final tables
};

struct RunStats {
  // End-to-end wall time: Experiment::run() for one world; for the sweep,
  // from its start until the gains are computed.
  double run_s = 0.0;
  double exp_wall_s = 0.0;  // summed per-experiment wall time
  std::uint32_t fingerprint = 0;
  std::vector<std::string> failed_checks;
  Counts counts;
  SweepTimes sweep;
  RouteProbe routes;
  std::vector<std::vector<Span>> spans;  // traced runs: one vector per run
};

// One closed-loop run of the workload on a fresh thread, so thread-local
// pools and counters start empty.
RunStats run_workload(Workload workload, std::uint64_t seed, RunMode mode);

// One run of a single world, as run_workload runs the single-world
// workloads.
RunStats run_config(const riptide::cdn::ExperimentConfig& config,
                    RunMode mode);

// Wall seconds to construct one run's worlds (topology, apps, agents), one
// after another on the calling thread.
double time_setup(const std::vector<riptide::cdn::ExperimentConfig>& configs);

// Every observable output of a run, serialised bit-exactly in the format of
// tests/determinism_test.cc; its CRC-32 is the run's fingerprint.
std::string serialize_metrics(const riptide::cdn::Experiment& experiment);

// Whether the golden world of tests/determinism_test.cc still produces its
// pinned fingerprint.
bool golden_fingerprint_ok();

// The small 4-PoP world the golden fingerprint pins, with agents on.
riptide::cdn::ExperimentConfig golden_config(std::uint64_t seed);

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by the untraced pass (--trace 0), per workload; lower is better.
inline constexpr MetricDef kEndToEndMetrics[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Printed by the traced pass (--trace 1), named after the src/ modules.
// Layers a workload does not exercise read 0 (no agent on control_mesh, no
// runner or gain analysis outside seed_sweep).
inline constexpr MetricDef kPerLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.self_s", "s"},
    {"sim.self_share", "ratio"},
    {"net.packets", "count"},
    {"net.segments", "count"},
    {"net.drops", "count"},
    {"net.pool_high_water", "count"},
    {"tcp.connections_opened", "count"},
    {"tcp.retransmissions", "count"},
    {"tcp.timeouts", "count"},
    {"host.ss_calls", "count"},
    {"host.ss_rows", "count"},
    {"host.ss_snapshot_us_p50", "us"},
    {"host.ss_snapshot_us_p99", "us"},
    {"host.ss_snapshot_s", "s"},
    {"host.ss_share", "ratio"},
    {"host.routes", "count"},
    {"host.route_lookup_ns", "ns"},
    {"host.route_lookup_est_s", "s"},
    {"core.polls", "count"},
    {"core.poll_us_p50", "us"},
    {"core.poll_us_p99", "us"},
    {"core.poll_s", "s"},
    {"core.poll_share", "ratio"},
    {"core.poll_self_us_p50", "us"},
    {"core.poll_self_s", "s"},
    {"core.programs", "count"},
    {"core.program_ns", "ns"},
    {"core.program_s", "s"},
    {"core.program_useful_ratio", "ratio"},
    {"core.routes_expired", "count"},
    {"cdn.probes_issued", "count"},
    {"cdn.probes_completed", "count"},
    {"cdn.probes_failed", "count"},
    {"stats.report_s", "s"},
    {"runner.workers", "count"},
    {"runner.parallel_efficiency", "ratio"},
    {"runner.queue_wait_s", "s"},
    {"runner.max_run_s", "s"},
    {"trace.run_s", "s"},
    {"trace.untraced_run_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

// Linearly interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

}  // namespace perfbench
