// riptide_sim — command-line front end for the simulated CDN.
//
// Runs the probe-mesh experiment on a configurable slice of the global
// topology and prints a summary: learned windows, probe completion
// percentiles per size, and agent counters. Handy for parameter
// exploration without writing C++.
//
// Usage: riptide_sim [flags]. --help prints the flag reference (kHelpText
// below; a bad flag prints it to stderr and exits 2); docs/CLI.md is
// generated from it and tools/check_cli_docs.py keeps the two in sync.
//
// With --sweep-seeds, the same scenario is run once per seed — fanned
// across --threads workers (default: one per hardware thread) — and a
// per-seed summary plus seed-merged percentiles are printed.
//
// --trace enables the decision-audit layer (src/trace) and writes the
// JSONL event stream to PATH after the run; "{label}" / "{index}" in PATH
// expand per run in a sweep. Render it with tools/trace_report.py.
//
// --policy selects a point in the initcwnd policy zoo (src/policy):
// "default", "static-iwN[@L]", "adaptive[-governed][@L]", "oracle[@L]".
// --hostile runs an adversarial scenario (src/cdn/hostile.h):
// "shallow-buffer[:queue=N]", "incast[:victim=P,fanin=N,...]",
// "flash-crowd[:at=S,conns=N,...]", "combined".
//
// --faults runs a declarative fault plan (src/faults) against the
// experiment: "@5 down 0-1; @10 up 0-1; @20 actuator-fail 0.3 30".
// --validate-only parses --faults/--hostile/--policy and exits 0 (all
// valid) or 1, printing the offending token and byte offset — a spec
// linter for campaign tooling.
//
// --chaos N runs the chaos-search campaign (src/chaos): N generated
// specs over fault plans x hostile scenarios x the policy zoo, each
// checked against the invariant oracles; violations are delta-debugged
// to minimal repro spec files under --chaos-out (default "."). The
// campaign is a pure function of --chaos-seed. --repro FILE replays one
// spec file and reports its violations (exit 1 when any fire).
//
// --flow-traffic F adds fluid (flow-level) cross-traffic at F flows/sec
// per WAN link instead of simulating those packets.

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdn/experiment.h"
#include "cdn/hostile.h"
#include "cdn/pops.h"
#include "chaos/engine.h"
#include "faults/fault_plan.h"
#include "faults/harness.h"
#include "policy/policy.h"
#include "runner/parallel_runner.h"
#include "runner/sweep.h"
#include "runner/task_pool.h"
#include "sim/number.h"
#include "trace/event.h"

using namespace riptide;

namespace {

struct Options {
  std::size_t pops = 8;
  int hosts = 1;
  double duration_s = 120;
  std::uint64_t seed = 1;
  bool riptide = true;
  unsigned threads = 0;
  std::string policy;
  std::string hostile;
  std::string faults;
  bool validate_only = false;
  std::size_t chaos = 0;  // 0 = no campaign
  std::uint64_t chaos_seed = 1;
  std::string chaos_out = ".";
  std::string repro;
  std::vector<std::uint64_t> sweep_seeds;
  cdn::ExperimentConfig config;
};

// The complete flag reference, printed by --help. Kept in one raw string
// so tools/check_cli_docs.py can extract it straight from this source file
// and diff it against docs/CLI.md — edit a flag here and the docs-lint CI
// job fails until the doc is regenerated.
constexpr const char* kHelpText = R"HELP(riptide_sim — simulated-CDN front end for the Riptide reproduction

usage: riptide_sim [flags]

World:
  --pops N             PoPs from the global list (default 8, max 34)
  --hosts N            hosts per PoP (default 1)
  --duration S         simulated seconds (default 120)
  --seed S             root RNG seed (default 1)
  --wan-loss P         WAN random-loss probability (default 0)
  --organic POP_INDEX  PoP also generating organic back-office traffic
                       (repeatable)

Riptide agent:
  --riptide 0|1        enable/disable the agent (default 1)
  --cmax N             window clamp upper bound, segments
  --cmin N             window clamp lower bound, segments
  --alpha F            EWMA history weight in [0,1]
  --interval S         poll interval i_u, seconds
  --ttl S              route entry time-to-live, seconds
  --combiner KIND      avg | max | weighted
  --prefix-granularity aggregate destinations to /16 routes

TCP:
  --pacing             enable the token-bucket pacer on every host
  --cc NAME            host-wide congestion control: reno | cubic |
                       cubic-fast (CUBIC + HyStart + pacing) | bbr
                       (BBR-lite + pacing); default is stock cubic
  --probe-interval S   probe client launch interval, seconds

Scenarios:
  --policy NAME        initcwnd policy: default | static-iwN[@L] |
                       adaptive[-governed][@L] | oracle[@L], each with an
                       optional ,cc=NAME suffix (L = route prefix length,
                       default 32; overrides --riptide)
  --hostile SPEC       adversarial scenario: shallow-buffer | incast |
                       flash-crowd | combined, with optional :key=val,...
                       tuning (see src/cdn/hostile.h)
  --faults SPEC        declarative fault plan (src/faults), e.g.
                       "@5 down 0-1; @10 up 0-1"
  --validate-only      parse --faults/--hostile/--policy, report offending
                       token + byte offset, exit 0/1 without running

Execution:
  --threads N          sweep worker threads (default: hardware threads)
  --sweep-seeds A,B,C  run the scenario once per seed and merge percentiles
  --flow-traffic F     fluid cross-traffic, F flows/sec per WAN link

Tracing:
  --trace PATH.jsonl   decision-audit JSONL export ({label}/{index} expand
                       per run); render with tools/trace_report.py
  --trace-ring N       trace ring capacity, events

Chaos search:
  --chaos N            N-spec campaign against the invariant oracles;
                       minimized repros land in --chaos-out
  --chaos-seed S       campaign seed (default 1)
  --chaos-out DIR      repro output directory (default ".")
  --repro FILE         replay one chaos spec, exit 1 when oracles fire

Misc:
  --help               print this reference and exit 0
)HELP";

[[noreturn]] void usage() {
  std::fputs(kHelpText, stderr);
  std::exit(2);
}

// Simulated times a flag may set, in seconds: the fault-plan grammar's
// bound, and at least the simulator's one-nanosecond tick.
constexpr double kMaxSeconds = 1e6;
// The trace ring is allocated, every slot written, when the run starts:
// cap it at 4 GiB resident (2^26 events of 64 bytes each). A 34-PoP,
// 240 s run emits 5.5 M events with one host per PoP and 11.1 M with two.
constexpr std::uint64_t kMaxTraceRing =
    (std::uint64_t{4} << 30) / sizeof(trace::TraceEvent);

[[noreturn]] void bad_value(const std::string& flag, const char* text,
                            const std::string& want) {
  std::fprintf(stderr, "%s: want %s, got '%s'\n", flag.c_str(), want.c_str(),
               text);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  // Numeric values: the whole token must be one number, in range where the
  // library has no check of its own, or the run stops here (exit 2) naming
  // the flag and what it wants. Values the library checks while building
  // the world (--hosts, --alpha, --cmin/--cmax, --organic, --wan-loss,
  // --flow-traffic) are range-checked there.
  std::string arg;
  const auto count = [&](int& i, std::uint64_t min, std::uint64_t max) {
    const char* text = need_value(i);
    const auto value = sim::read_u64(text);
    if (!value || *value < min || *value > max) {
      bad_value(arg, text,
                "a whole number in [" + std::to_string(min) + ", " +
                    std::to_string(max) + "]");
    }
    return *value;
  };
  const auto number = [&](int& i) {
    const char* text = need_value(i);
    const auto value = sim::read_double(text);
    if (!value) bad_value(arg, text, "a finite number");
    return *value;
  };
  const auto seconds = [&](int& i) {
    const char* text = need_value(i);
    const auto value = sim::read_double(text);
    if (!value || *value <= 0.0 || *value > kMaxSeconds ||
        sim::Time::from_seconds(*value) <= sim::Time::zero()) {
      bad_value(arg, text, "seconds in (0, 1e6], at least 1 ns");
    }
    return *value;
  };
  constexpr std::uint64_t kInt = std::numeric_limits<int>::max();
  constexpr auto kU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr auto kU64 = std::numeric_limits<std::uint64_t>::max();
  const std::size_t max_pops = cdn::default_pop_specs().size();
  for (int i = 1; i < argc; ++i) {
    arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kHelpText, stdout);
      std::exit(0);
    } else if (arg == "--pops") {
      opt.pops = count(i, 2, max_pops);
    } else if (arg == "--hosts") {
      opt.hosts = static_cast<int>(count(i, 0, kInt));
    } else if (arg == "--duration") {
      opt.duration_s = seconds(i);
    } else if (arg == "--seed") {
      opt.seed = count(i, 0, kU64);
    } else if (arg == "--riptide") {
      opt.riptide = count(i, 0, 1) != 0;
    } else if (arg == "--cmax") {
      opt.config.riptide.c_max = static_cast<std::uint32_t>(count(i, 0, kU32));
    } else if (arg == "--cmin") {
      opt.config.riptide.c_min = static_cast<std::uint32_t>(count(i, 0, kU32));
    } else if (arg == "--alpha") {
      opt.config.riptide.alpha = number(i);
    } else if (arg == "--interval") {
      opt.config.riptide.update_interval = sim::Time::from_seconds(seconds(i));
    } else if (arg == "--ttl") {
      opt.config.riptide.ttl = sim::Time::from_seconds(seconds(i));
    } else if (arg == "--combiner") {
      const std::string kind = need_value(i);
      if (kind == "avg") {
        opt.config.riptide.combiner = core::CombinerKind::kAverage;
      } else if (kind == "max") {
        opt.config.riptide.combiner = core::CombinerKind::kMax;
      } else if (kind == "weighted") {
        opt.config.riptide.combiner = core::CombinerKind::kTrafficWeighted;
      } else {
        usage();
      }
    } else if (arg == "--prefix-granularity") {
      opt.config.riptide.granularity = core::Granularity::kPrefix;
      opt.config.riptide.prefix_length = 16;
    } else if (arg == "--probe-interval") {
      opt.config.probe.interval = sim::Time::from_seconds(seconds(i));
    } else if (arg == "--wan-loss") {
      opt.config.topology.wan_loss_probability = number(i);
    } else if (arg == "--organic") {
      opt.config.organic_source_pops.push_back(count(i, 0, kU64));
    } else if (arg == "--pacing") {
      opt.config.topology.host_tcp.pacing = true;
    } else if (arg == "--cc") {
      tcp::RouteCc cc = tcp::RouteCc::kUnset;
      if (!tcp::parse_route_cc(need_value(i), cc)) usage();
      tcp::apply_route_cc(cc, opt.config.topology.host_tcp);
    } else if (arg == "--trace") {
      opt.config.trace.enabled = true;
      opt.config.trace.export_path = need_value(i);
    } else if (arg == "--trace-ring") {
      opt.config.trace.ring_capacity = count(i, 1, kMaxTraceRing);
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(
          count(i, 0, std::numeric_limits<unsigned>::max()));
    } else if (arg == "--flow-traffic") {
      opt.config.flow_traffic.enabled = true;
      opt.config.flow_traffic.model.flows_per_second = number(i);
    } else if (arg == "--policy") {
      opt.policy = need_value(i);
    } else if (arg == "--hostile") {
      opt.hostile = need_value(i);
    } else if (arg == "--faults") {
      opt.faults = need_value(i);
    } else if (arg == "--validate-only") {
      opt.validate_only = true;
    } else if (arg == "--chaos") {
      opt.chaos = count(i, 1, kU64);
    } else if (arg == "--chaos-seed") {
      opt.chaos_seed = count(i, 0, kU64);
    } else if (arg == "--chaos-out") {
      opt.chaos_out = need_value(i);
    } else if (arg == "--repro") {
      opt.repro = need_value(i);
    } else if (arg == "--sweep-seeds") {
      auto seeds = sim::read_u64_list(need_value(i));
      if (!seeds) usage();
      opt.sweep_seeds = std::move(*seeds);
    } else {
      usage();
    }
  }
  return opt;
}

void print_summary(const cdn::Experiment& exp);

// --validate-only: parse every scenario spec the invocation carries and
// report each failure with its offending token and byte offset. Exit 0
// iff all given specs parse.
int validate_specs(const Options& opt) {
  int failures = 0;
  const auto check = [&](const char* flag, const std::string& text,
                         void (*parse_one)(const std::string&)) {
    if (text.empty()) return;
    try {
      parse_one(text);
      std::printf("%s: OK\n", flag);
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "%s: %s\n", flag, err.what());
      ++failures;
    }
  };
  check("--faults", opt.faults,
        [](const std::string& s) { (void)faults::FaultPlan::parse(s); });
  check("--hostile", opt.hostile,
        [](const std::string& s) { (void)cdn::parse_hostile_spec(s); });
  check("--policy", opt.policy,
        [](const std::string& s) { (void)policy::parse_policy(s); });
  return failures == 0 ? 0 : 1;
}

// --repro FILE: replay one chaos spec and report its violations.
int run_repro(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "--repro: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  chaos::ChaosSpec spec;
  try {
    spec = chaos::ChaosSpec::parse(text);
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "--repro: %s: %s\n", path.c_str(), err.what());
    return 2;
  }
  const chaos::RunResult result = chaos::run_chaos_spec(spec);
  std::printf("repro %s: fingerprint 0x%08X, %zu violation(s)\n",
              path.c_str(), result.fingerprint, result.violations.size());
  for (const auto& v : result.violations) {
    std::printf("  violation: %s — %s\n", v.oracle.c_str(),
                v.detail.c_str());
  }
  return result.violations.empty() ? 0 : 1;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size();
  return (std::fclose(f) == 0) && ok;
}

// --chaos N: the randomized campaign. Prints one line per finding as it
// lands and writes the failing + minimized specs under --chaos-out.
int run_chaos_campaign(const Options& opt) {
  chaos::CampaignConfig config;
  config.seed = opt.chaos_seed;
  config.runs = opt.chaos;
  std::printf("chaos: campaign seed %llu, %zu runs -> %s\n",
              static_cast<unsigned long long>(config.seed), config.runs,
              opt.chaos_out.c_str());
  config.on_run = [](std::size_t index, const chaos::ChaosSpec& spec,
                     const chaos::RunResult& result) {
    if (result.violations.empty()) return;
    std::printf("run %zu VIOLATED %s (%zu violation(s), policy %s)\n", index,
                result.violations.front().oracle.c_str(),
                result.violations.size(),
                policy::to_string(spec.policy).c_str());
  };
  const chaos::CampaignResult result = chaos::run_campaign(config);

  for (const auto& finding : result.findings) {
    const std::string stem = opt.chaos_out + "/chaos-" +
                             std::to_string(opt.chaos_seed) + "-" +
                             std::to_string(finding.index);
    if (!write_file(stem + ".spec", finding.spec.to_string()) ||
        !write_file(stem + ".min.spec", finding.minimized.to_string())) {
      std::fprintf(stderr, "chaos: cannot write repro specs at %s\n",
                   stem.c_str());
      return 2;
    }
    std::printf("finding @%zu: %s\n", finding.index,
                finding.violations.front().oracle.c_str());
    for (const auto& v : finding.minimized_violations) {
      std::printf("  minimized violation: %s — %s\n", v.oracle.c_str(),
                  v.detail.c_str());
    }
    std::printf("  repro: %s.min.spec (%zu shrink runs)\n", stem.c_str(),
                finding.shrink_runs);
  }
  std::printf("chaos: %zu runs (%zu golden), %zu shrink runs, "
              "%zu finding(s)\n",
              result.runs, result.golden_runs, result.shrink_runs,
              result.findings.size());
  return result.findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);

  if (opt.validate_only) return validate_specs(opt);
  if (!opt.repro.empty()) return run_repro(opt.repro);
  if (opt.chaos > 0) return run_chaos_campaign(opt);

  const auto& all_specs = cdn::default_pop_specs();
  opt.config.pop_specs.assign(all_specs.begin(),
                              all_specs.begin() +
                                  static_cast<std::ptrdiff_t>(opt.pops));
  opt.config.topology.hosts_per_pop = opt.hosts;
  opt.config.riptide_enabled = opt.riptide;
  opt.config.duration = sim::Time::from_seconds(opt.duration_s);
  opt.config.seed = opt.seed;

  if (!opt.hostile.empty()) {
    try {
      opt.config.hostile = cdn::parse_hostile_spec(opt.hostile);
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "--hostile: %s\n", err.what());
      return 2;
    }
    if ((opt.config.hostile.kind == cdn::HostileKind::kIncast ||
         opt.config.hostile.kind == cdn::HostileKind::kCombined) &&
        opt.config.hostile.victim_pop >= opt.pops) {
      std::fprintf(stderr, "--hostile: victim PoP %zu out of range [0, %zu)\n",
                   opt.config.hostile.victim_pop, opt.pops);
      return 2;
    }
  }

  if (!opt.faults.empty()) {
    faults::FaultPlan plan;
    try {
      plan = faults::FaultPlan::parse(opt.faults);
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "--faults: %s\n", err.what());
      return 2;
    }
    faults::FaultHarness::install(opt.config, std::move(plan));
  }

  if (!opt.policy.empty()) {
    policy::PolicySpec spec;
    try {
      spec = policy::parse_policy(opt.policy);
    } catch (const std::invalid_argument& err) {
      std::fprintf(stderr, "--policy: %s\n", err.what());
      return 2;
    }
    // apply_policy owns riptide_enabled from here; --riptide is ignored.
    policy::apply_policy(opt.config, spec);
    opt.riptide = opt.config.riptide_enabled;
  }

  std::vector<std::uint64_t> seeds =
      opt.sweep_seeds.empty() ? std::vector<std::uint64_t>{opt.seed}
                              : opt.sweep_seeds;

  std::printf("riptide_sim: %zu PoPs x %d hosts, %.0f s simulated, "
              "riptide=%s, %zu seed(s) on %u worker(s)",
              opt.pops, opt.hosts, opt.duration_s,
              opt.riptide ? "on" : "off", seeds.size(),
              runner::effective_threads(opt.threads, seeds.size()));
  if (!opt.policy.empty()) std::printf(", policy=%s", opt.policy.c_str());
  if (opt.config.hostile.kind != cdn::HostileKind::kNone) {
    std::printf(", hostile=%s", cdn::to_string(opt.config.hostile.kind));
  }
  if (opt.config.flow_traffic.enabled) {
    std::printf(", flow-traffic=%.0f/s",
                opt.config.flow_traffic.model.flows_per_second);
  }
  std::printf("\n");

  std::vector<runner::RunResult> results;
  try {
    results = runner::ParallelRunner(opt.threads)
                  .run(runner::SweepSpec(opt.config)
                           .seeds(seeds)
                           .materialize());
  } catch (const std::invalid_argument& err) {
    // The library rejects a world it cannot build (say --hosts 0 or --cmin
    // above --cmax) with std::invalid_argument.
    std::fprintf(stderr, "riptide_sim: %s\n", err.what());
    return 2;
  }

  for (const auto& r : results) {
    const auto* sink = r.experiment->trace_sink();
    if (sink == nullptr) continue;
    std::printf("trace: %llu events (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(sink->emitted()),
                static_cast<unsigned long long>(sink->dropped()),
                r.experiment->config().trace.export_path.c_str());
  }

  if (results.size() == 1) {
    print_summary(*results.front().experiment);
    return 0;
  }

  // Seed sweep: per-seed compact rows plus seed-merged percentiles — the
  // campaign view the paper's distributional claims rest on.
  std::printf("\nper-seed 100 KB probe completion (ms):\n");
  std::printf("  %12s %10s %10s %10s %10s %9s\n", "seed", "p50", "p75",
              "p90", "n", "wall s");
  stats::Cdf merged;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto cdf = results[i].experiment->metrics().completion_cdf(
        [](const cdn::FlowRecord& f) { return f.object_bytes == 100'000; });
    merged.add_all(cdf.sorted_samples());
    std::printf("  %12llu %10.0f %10.0f %10.0f %10zu %9.2f\n",
                static_cast<unsigned long long>(seeds[i]),
                cdf.empty() ? 0.0 : cdf.percentile(50),
                cdf.empty() ? 0.0 : cdf.percentile(75),
                cdf.empty() ? 0.0 : cdf.percentile(90), cdf.count(),
                results[i].wall_seconds);
  }
  if (!merged.empty()) {
    std::printf("  %12s %10.0f %10.0f %10.0f %10zu\n", "merged",
                merged.percentile(50), merged.percentile(75),
                merged.percentile(90), merged.count());
  }
  return 0;
}

namespace {

void print_summary(const cdn::Experiment& exp) {
  std::printf("\nprobe completion times (ms), all sources:\n");
  std::printf("  %8s %10s %10s %10s %10s\n", "size", "p50", "p75", "p90",
              "n");
  for (std::uint64_t size : {10'000u, 50'000u, 100'000u}) {
    const auto cdf = exp.metrics().completion_cdf(
        [=](const cdn::FlowRecord& f) { return f.object_bytes == size; });
    if (cdf.empty()) continue;
    std::printf("  %6lluKB %10.0f %10.0f %10.0f %10zu\n",
                static_cast<unsigned long long>(size / 1000),
                cdf.percentile(50), cdf.percentile(75), cdf.percentile(90),
                cdf.count());
  }

  const auto cwnd = exp.metrics().cwnd_cdf();
  if (!cwnd.empty()) {
    std::printf("\nsampled congestion windows (segments): p25=%.0f p50=%.0f "
                "p75=%.0f p90=%.0f (n=%zu)\n",
                cwnd.percentile(25), cwnd.percentile(50),
                cwnd.percentile(75), cwnd.percentile(90), cwnd.count());
  }

  const auto& hostile = exp.config().hostile;
  if (hostile.kind != cdn::HostileKind::kNone) {
    std::uint64_t waves = 0, conns = 0, bytes = 0;
    for (const auto& src : exp.incast_sources()) {
      waves += src->waves_fired();
      conns += src->connections_opened();
      bytes += src->bytes_queued();
    }
    for (const auto& src : exp.flash_crowd_sources()) {
      waves += src->waves_fired();
      conns += src->connections_opened();
      bytes += src->bytes_queued();
    }
    std::printf("\nhostile %s: %llu waves, %llu fresh connections, "
                "%.1f MB queued\n",
                cdn::to_string(hostile.kind),
                static_cast<unsigned long long>(waves),
                static_cast<unsigned long long>(conns), bytes / 1e6);
  }

  if (!exp.agents().empty()) {
    std::uint64_t polls = 0, routes = 0, expired = 0;
    std::uint64_t scaledowns = 0, withdrawals = 0, rollbacks = 0;
    std::size_t entries = 0;
    for (const auto& agent : exp.agents()) {
      polls += agent->stats().polls;
      routes += agent->stats().routes_set;
      expired += agent->stats().routes_expired;
      entries += agent->table().size();
      scaledowns += agent->stats().governor_stage_scaledowns;
      withdrawals += agent->stats().governor_stage_withdrawals;
      rollbacks += agent->stats().governor_rollbacks;
    }
    std::printf("\nagents: %zu, polls: %llu, routes set: %llu, expired: "
                "%llu, live table entries: %zu\n",
                exp.agents().size(), static_cast<unsigned long long>(polls),
                static_cast<unsigned long long>(routes),
                static_cast<unsigned long long>(expired), entries);
    if (scaledowns + withdrawals + rollbacks > 0) {
      std::printf("governor: %llu scale-downs, %llu selective withdrawals, "
                  "%llu rollbacks\n",
                  static_cast<unsigned long long>(scaledowns),
                  static_cast<unsigned long long>(withdrawals),
                  static_cast<unsigned long long>(rollbacks));
    }

    std::printf("\nlearned windows at %s:\n",
                exp.topology().host(0, 0).name().c_str());
    for (const auto& [dst, state] : exp.agents().front()->table().entries()) {
      std::printf("  %-18s -> %5.1f segments\n", dst.to_string().c_str(),
                  state.final_window_segments);
    }
  }
}

}  // namespace
