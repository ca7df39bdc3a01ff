// Repository benchmark: paper-world wall time, attributed layer by layer.
//
// One process runs one workload closed-loop (each run starts when the
// previous one ends) for about --seconds of wall time, checks every run's
// outputs, and prints one JSON result line last. The untraced pass
// (--trace 0) gives the end-to-end metrics; the traced pass (--trace 1)
// alternates untraced and traced runs and gives the per-layer metrics.
// run.py builds this binary and forwards its arguments:
//
//   perfbench --workload paper_mesh --seed 1 --seconds 55 --trace 0
//             [--spans-out PATH]
//   perfbench --selftest
//   perfbench --list-metrics

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

int run_selftest();

namespace {

// Wall time between set-up samples taken while a run proceeds. One sample
// costs about a millisecond per world.
constexpr auto kSetupEvery = std::chrono::milliseconds(100);
// Set-up sampling after a run that kept every core busy.
constexpr auto kSetupBurst = std::chrono::milliseconds(500);

// Fewest runs per pass, so that repeats of one seed are compared. Past
// that, a pass starts another run while, at its pace so far, the run would
// end within --seconds; so a pass lasts about as long in a slow phase of
// the host as in a fast one. Every estimate is a median of whole runs,
// which the number of runs does not shift. The golden world each pass runs
// first warms the allocator; a pass's first run is not measurably slower
// than its others.
constexpr int kMinRuns = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool more_runs(int done, int at_least, Clock::time_point start,
               const Options& opt) {
  return done < at_least ||
         seconds_since(start) * (done + 1) / done <= opt.seconds;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_mesh|control_mesh|churn_mesh|"
               "seed_sweep --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n"
               "       %s --selftest | --list-metrics\n",
               argv0, argv0);
  std::exit(2);
}

// Outcome counting shared by both passes: one attempt per workload run,
// failed when any of its checks failed. Failed checks are named on stdout.
struct Tally {
  int attempted = 0;
  int failed = 0;

  void record(const std::string& what,
              const std::vector<std::string>& failed_checks) {
    ++attempted;
    if (failed_checks.empty()) return;
    ++failed;
    for (const auto& check : failed_checks) {
      std::printf("perfbench: check failed: %s (%s)\n", check.c_str(),
                  what.c_str());
    }
  }
};

void check_golden(Tally& tally) {
  std::vector<std::string> failed;
  if (!golden_fingerprint_ok()) failed.emplace_back("golden_fingerprint");
  tally.record("golden world", failed);
}

void log_run(const char* pass, std::size_t index, const RunStats& run) {
  std::printf("perfbench: %s run %zu: run_s=%.4f fingerprint=0x%08" PRIx32
              "\n",
              pass, index, run.run_s, run.fingerprint);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Prints the result line: every metric of `defs`, each exactly once.
void print_result(const Tally& tally,
                  const std::map<std::string, double>& values,
                  std::span<const MetricDef> defs) {
  std::string metrics;
  char buf[160];
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      throw std::logic_error(std::string("metric not measured: ") + def.name);
    }
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", def.name, it->second, def.unit);
    metrics += buf;
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n",
      tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed,
      metrics.c_str());
}

// Runs the workload once and times the construction of its worlds. When
// the run leaves a core free, this thread times one construction every
// kSetupEvery while the run proceeds on its own thread: the host's speed
// drifts in phases of seconds to minutes, so set-up samples are spread
// over the pass as the runs are. When the run keeps every core busy (the
// sweep's runner workers), a sample beside it would also time how the
// scheduler shares the cores, so samples are taken for kSetupBurst after
// the run instead.
RunStats run_sampling_setup(Workload workload, const Options& opt,
                            std::vector<double>& setup_s) {
  const std::vector<riptide::cdn::ExperimentConfig> configs =
      workload_configs(workload, opt.seed);
  if (run_threads(workload) >=
      std::max(1u, std::thread::hardware_concurrency())) {
    RunStats run = run_workload(workload, opt.seed, RunMode{});
    const auto start = Clock::now();
    while (Clock::now() - start < kSetupBurst) {
      setup_s.push_back(time_setup(configs));
    }
    return run;
  }
  RunStats run;
  std::exception_ptr error;
  std::atomic<bool> done{false};
  std::thread worker([&] {
    try {
      run = run_workload(workload, opt.seed, RunMode{});
    } catch (...) {
      error = std::current_exception();
    }
    done = true;
  });
  while (!done) {
    setup_s.push_back(time_setup(configs));
    std::this_thread::sleep_for(kSetupEvery);
  }
  worker.join();
  if (error) std::rethrow_exception(error);
  return run;
}

int untraced_pass(Workload workload, const Options& opt) {
  Tally tally;
  check_golden(tally);

  std::vector<double> run_s, setup_s;
  std::uint32_t fingerprint = 0;
  const auto start = Clock::now();
  for (int i = 0; more_runs(i, kMinRuns, start, opt); ++i) {
    RunStats run = run_sampling_setup(workload, opt, setup_s);
    if (i == 0) fingerprint = run.fingerprint;
    if (run.fingerprint != fingerprint) {
      run.failed_checks.emplace_back("repeat_fingerprint");
    }
    log_run("untraced", static_cast<std::size_t>(i), run);
    tally.record("run " + std::to_string(i), run.failed_checks);
    run_s.push_back(run.run_s);
  }
  print_result(tally,
               {{"run_s", median(run_s)},
                {"setup_s", median(setup_s)},
                {"peak_rss_mb", peak_rss_mb()}},
               kEndToEndMetrics);
  return 0;
}

// Per-layer values of one traced run, from its spans.
std::map<std::string, double> layer_values(const RunStats& run) {
  std::vector<double> poll_us, poll_self_us, snapshot_us;
  double poll_s = 0, poll_self_s = 0, snapshot_s = 0, program_s = 0;
  double top_level_s = 0;
  double rows = 0, programs = 0, useful = 0, spans = 0;
  for (const std::vector<Span>& one_run : run.spans) {
    const std::vector<std::int64_t> self = self_times_ns(one_run);
    for (std::size_t i = 0; i < one_run.size(); ++i) {
      const Span& s = one_run[i];
      const double dur_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      const double self_s = static_cast<double>(self[i]) * 1e-9;
      ++spans;
      if (s.parent < 0) top_level_s += dur_s;
      if (s.name == kPollSpan) {
        poll_us.push_back(dur_s * 1e6);
        poll_self_us.push_back(self_s * 1e6);
        poll_s += dur_s;
        poll_self_s += self_s;
      } else if (s.name == kSnapshotSpan) {
        snapshot_us.push_back(dur_s * 1e6);
        snapshot_s += self_s;
        rows += static_cast<double>(s.value);
      } else if (s.name == kProgramSpan) {
        program_s += self_s;
        ++programs;
        useful += static_cast<double>(s.value);
      }
    }
  }
  const double wall = run.exp_wall_s;
  const double snapshots = static_cast<double>(snapshot_us.size());
  return {
      {"sim.self_s", wall - top_level_s},
      {"sim.self_share", (wall - top_level_s) / wall},
      {"host.ss_calls", snapshots},
      {"host.ss_rows", snapshots > 0 ? rows / snapshots : 0.0},
      {"host.ss_snapshot_us_p50", quantile(snapshot_us, 0.5)},
      {"host.ss_snapshot_us_p99", quantile(snapshot_us, 0.99)},
      {"host.ss_snapshot_s", snapshot_s},
      {"host.ss_share", snapshot_s / wall},
      {"core.polls", static_cast<double>(poll_us.size())},
      {"core.poll_us_p50", quantile(poll_us, 0.5)},
      {"core.poll_us_p99", quantile(poll_us, 0.99)},
      {"core.poll_s", poll_s},
      {"core.poll_share", poll_s / wall},
      {"core.poll_self_us_p50", quantile(poll_self_us, 0.5)},
      {"core.poll_self_s", poll_self_s},
      {"core.programs", programs},
      {"core.program_ns", programs > 0 ? program_s / programs * 1e9 : 0.0},
      {"core.program_s", program_s},
      {"core.program_useful_ratio", programs > 0 ? useful / programs : 0.0},
      {"trace.spans", spans},
      {"trace.run_s", run.run_s},
  };
}

// One JSON line per span, times relative to the earliest span.
void write_spans(const std::string& path, const RunStats& run) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::int64_t origin = INT64_MAX;
  for (const auto& one_run : run.spans) {
    for (const Span& s : one_run) origin = std::min(origin, s.start_ns);
  }
  for (const auto& one_run : run.spans) {
    for (std::size_t i = 0; i < one_run.size(); ++i) {
      const Span& s = one_run[i];
      std::fprintf(out,
                   "{\"run\":%d,\"id\":%zu,\"parent\":%d,\"name\":\"%.*s\","
                   "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                   ",\"value\":%" PRIu64 "}\n",
                   s.run, i, s.parent, static_cast<int>(s.name.size()),
                   s.name.data(), s.start_ns - origin, s.end_ns - origin,
                   s.value);
    }
  }
  std::fclose(out);
}

int traced_pass(Workload workload, const Options& opt) {
  Tally tally;
  check_golden(tally);

  // Untraced and traced runs alternate, so both see the same host load.
  // Pairs start as runs do in the untraced pass, at least one.
  std::vector<RunStats> untraced, traced;
  const auto start = Clock::now();
  for (int pairs = 0; more_runs(pairs, 1, start, opt); ++pairs) {
    untraced.push_back(run_workload(
        workload, opt.seed, RunMode{.probe_routes = untraced.empty()}));
    traced.push_back(
        run_workload(workload, opt.seed, RunMode{.traced = true}));
  }

  const std::uint32_t fingerprint = untraced.front().fingerprint;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    if (untraced[i].fingerprint != fingerprint) {
      untraced[i].failed_checks.emplace_back("repeat_fingerprint");
    }
    if (traced[i].fingerprint != fingerprint) {
      traced[i].failed_checks.emplace_back("traced_fingerprint");
    }
    log_run("untraced", i, untraced[i]);
    log_run("traced", i, traced[i]);
    tally.record("untraced run " + std::to_string(i),
                 untraced[i].failed_checks);
    tally.record("traced run " + std::to_string(i), traced[i].failed_checks);
  }

  std::map<std::string, std::vector<double>> samples;
  for (const RunStats& run : traced) {
    for (const auto& [name, value] : layer_values(run)) {
      samples[name].push_back(value);
    }
  }
  std::vector<double> untraced_run_s, exp_wall_s, report_s, queue_wait_s,
      max_run_s, efficiency;
  for (const RunStats& run : untraced) {
    untraced_run_s.push_back(run.run_s);
    exp_wall_s.push_back(run.exp_wall_s);
    report_s.push_back(run.sweep.report_s);
    queue_wait_s.push_back(run.sweep.queue_wait_s);
    max_run_s.push_back(run.sweep.max_run_s);
    efficiency.push_back(run.sweep.parallel_efficiency);
  }

  std::map<std::string, double> values;
  for (const auto& [name, series] : samples) values[name] = median(series);
  const RunStats& base = untraced.front();
  const Counts& c = base.counts;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  values["sim.events"] = count(c.events);
  values["sim.ns_per_event"] =
      c.events > 0 ? median(exp_wall_s) / count(c.events) * 1e9 : 0.0;
  values["net.packets"] = count(c.packets);
  values["net.segments"] = count(c.segments);
  values["net.drops"] = count(c.drops);
  values["net.pool_high_water"] = count(c.pool_high_water);
  values["tcp.connections_opened"] = count(c.connections_opened);
  values["tcp.retransmissions"] = count(c.retransmissions);
  values["tcp.timeouts"] = count(c.timeouts);
  values["host.routes"] = base.routes.mean_routes;
  values["host.route_lookup_ns"] = base.routes.lookup_ns;
  values["host.route_lookup_est_s"] =
      base.routes.lookup_ns * count(c.segments) * 1e-9;
  values["core.routes_expired"] = count(c.routes_expired);
  values["cdn.probes_issued"] = count(c.probes_issued);
  values["cdn.probes_completed"] = count(c.probes_completed);
  values["cdn.probes_failed"] = count(c.probes_failed);
  values["stats.report_s"] = median(report_s);
  values["runner.workers"] = base.sweep.workers;
  values["runner.parallel_efficiency"] = median(efficiency);
  values["runner.queue_wait_s"] = median(queue_wait_s);
  values["runner.max_run_s"] = median(max_run_s);
  values["trace.untraced_run_s"] = median(untraced_run_s);
  values["trace.overhead_s"] =
      values["trace.run_s"] - values["trace.untraced_run_s"];

  if (!opt.spans_out.empty()) write_spans(opt.spans_out, traced.back());
  print_result(tally, values, kPerLayerMetrics);
  return 0;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage(argv[0]);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage(argv[0]);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage(argv[0]);
      }
      opt.trace = value[0] == '1';
    } else if (arg == "--spans-out") {
      opt.spans_out = value;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload) usage(argv[0]);
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return run_selftest();
  }
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    for (const MetricDef& def : kEndToEndMetrics) {
      std::printf("end_to_end %s %s\n", def.name, def.unit);
    }
    for (const MetricDef& def : kPerLayerMetrics) {
      std::printf("per_layer %s %s\n", def.name, def.unit);
    }
    return 0;
  }
  const Options opt = parse(argc, argv);
  const auto workload = parse_workload(opt.workload);
  if (!workload) usage(argv[0]);
  try {
    return opt.trace ? traced_pass(*workload, opt)
                     : untraced_pass(*workload, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
