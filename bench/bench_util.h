#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cdn/experiment.h"
#include "stats/cdf.h"

namespace riptide::bench {

// Options shared by every bench driver. All benches accept:
//   --threads N     worker threads for independent experiment runs
//                   (0/default = one per hardware thread)
//   --seeds a,b,c   seeds to sweep where the bench supports it
//   --json          additionally emit machine-readable result lines
//   --trace PATH    enable decision-audit tracing on simulation benches;
//                   "{label}"/"{index}" in PATH expand per run, so one
//                   flag fans out to per-run JSONL files
struct BenchOptions {
  unsigned threads = 0;
  std::vector<std::uint64_t> seeds = {1};
  bool json = false;
  std::string trace_path;
};

// Benchmark numbers from an -O0 build are noise; say so loudly (satellite
// of the perf PR: benches default to a Release-flags warning).
inline void warn_if_unoptimized() {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "WARNING: this bench was built without optimization "
               "(CMAKE_BUILD_TYPE=Debug?). Numbers will be meaningless; "
               "configure with -DCMAKE_BUILD_TYPE=Release.\n");
#endif
}

inline BenchOptions parse_bench_options(int argc, char** argv) {
  warn_if_unoptimized();
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      opt.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--seeds" && i + 1 < argc) {
      opt.seeds.clear();
      const char* p = argv[++i];
      while (*p != '\0') {
        char* end = nullptr;
        opt.seeds.push_back(std::strtoull(p, &end, 10));
        p = (*end == ',') ? end + 1 : end;
      }
      if (opt.seeds.empty()) opt.seeds = {1};
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      opt.trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--seeds a,b,c] [--json] "
                   "[--trace PATH]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

// Prints a CDF as "value @ percentile" rows at the given percentiles.
inline void print_cdf_row(const std::string& label, const stats::Cdf& cdf,
                          const std::vector<double>& percentiles) {
  std::printf("%-28s", label.c_str());
  if (cdf.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  for (double p : percentiles) {
    std::printf("  %9.1f", cdf.percentile(p));
  }
  std::printf("  (n=%zu)\n", cdf.count());
}

inline void print_percentile_header(const std::string& first_col,
                                    const std::vector<double>& percentiles) {
  std::printf("%-28s", first_col.c_str());
  for (double p : percentiles) {
    std::printf("  %8.0fth", p);
  }
  std::printf("\n");
}

inline void print_rule(char c = '-', int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

// The standard scaled-down experiment world shared by the simulation
// benches: the paper's full 34-PoP roster, one host per PoP, and a probe
// mesh at seconds (rather than hourly) cadence. The measurement window is
// minutes of simulated time instead of the paper's 12-20 hours; all of the
// measured quantities are distributional, so the window only controls
// sample count.
inline cdn::ExperimentConfig paper_world(bool riptide_enabled,
                                         std::uint64_t seed = 1) {
  cdn::ExperimentConfig config;
  config.topology.hosts_per_pop = 1;
  // Cross-traffic-induced residual loss on WAN segments, calibrated so
  // congestion bounds natural window growth the way the paper's production
  // network does (this is what produces Fig 10's diminishing returns past
  // c_max = 100).
  config.topology.wan_loss_probability = 1e-3;
  config.riptide_enabled = riptide_enabled;
  config.riptide.update_interval = sim::Time::seconds(1);  // i_u of §IV-A
  config.riptide.ttl = sim::Time::seconds(90);             // t of §III-B
  config.riptide.c_max = 100;                              // Fig 10 knee
  config.probe.interval = sim::Time::seconds(5);
  config.probe.idle_close = sim::Time::seconds(12);
  // CDN-standard host tuning: keep grown windows across idle periods
  // (tcp_slow_start_after_idle=0), so reused probe connections run at
  // their grown windows in both the control and the treatment — the
  // production behaviour behind the paper's flat low percentiles in
  // Figs 15/16.
  config.topology.host_tcp.slow_start_after_idle = false;
  config.duration = sim::Time::minutes(3);
  config.cwnd_sample_interval = sim::Time::seconds(15);
  config.seed = seed;
  return config;
}

// Applies the --trace option to a simulation config. No-op without the
// flag, preserving the tracing-off bit-identity contract benches rely on.
inline void apply_trace(cdn::ExperimentConfig& config,
                        const BenchOptions& opt) {
  if (opt.trace_path.empty()) return;
  config.trace.enabled = true;
  config.trace.export_path = opt.trace_path;
}

// Per-reason drop counters and loss-recovery totals for one run, as a JSON
// fragment (key:value pairs, no surrounding braces) — appended to bench
// JSON lines so degraded runs are explainable from the emitted record.
inline std::string safety_counters_json(const cdn::Experiment& e) {
  const auto drops = e.topology().drop_totals();
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "\"drops\":{\"queue_full\":%llu,\"random_loss\":%llu,"
      "\"link_down\":%llu,\"no_route\":%llu},"
      "\"retransmissions\":%llu,\"timeouts\":%llu",
      static_cast<unsigned long long>(drops.queue_full),
      static_cast<unsigned long long>(drops.random_loss),
      static_cast<unsigned long long>(drops.link_down),
      static_cast<unsigned long long>(drops.no_route),
      static_cast<unsigned long long>(e.topology().total_retransmissions()),
      static_cast<unsigned long long>(e.topology().total_timeouts()));
  return buf;
}

// The Fig 15/16 analysis shared by bench_fig15_16_percentile and
// bench_cc_matrix. A destination enters the comparison only when both
// arms hold at least this many completions.
inline constexpr std::size_t kMinSamplesPerArm = 10;

// Merged completion-time CDF (ms) across all seeds of one sweep arm.
inline stats::Cdf merged_cdf(const std::vector<const cdn::Experiment*>& runs,
                             int src, std::uint64_t size, int dst) {
  stats::Cdf merged;
  for (const cdn::Experiment* run : runs) {
    merged.add_all(run->probe_cdf(src, size, dst).sorted_samples());
  }
  return merged;
}

// Per-destination percentile gains averaged across destinations (the
// paper's Fig 15/16 view), keyed by percentile. All probes of this size
// count: reused probes run at grown windows in both systems and pin the
// low percentiles; fresh ones carry the gains.
inline std::map<double, double> gain_by_percentile(
    const std::vector<const cdn::Experiment*>& treatment,
    const std::vector<const cdn::Experiment*>& control, int src,
    std::uint64_t size, std::size_t pop_count) {
  std::map<double, std::pair<double, int>> accum;  // pct -> (sum, n)
  for (std::size_t dst = 0; dst < pop_count; ++dst) {
    if (static_cast<int>(dst) == src) continue;
    const auto with = merged_cdf(treatment, src, size, static_cast<int>(dst));
    const auto without = merged_cdf(control, src, size, static_cast<int>(dst));
    if (with.count() < kMinSamplesPerArm ||
        without.count() < kMinSamplesPerArm) {
      continue;
    }
    for (const auto& gain : cdn::percentile_gains(without, with, 5.0)) {
      auto& slot = accum[gain.percentile];
      slot.first += gain.gain_fraction;
      ++slot.second;
    }
  }
  std::map<double, double> averaged;
  for (const auto& [pct, slot] : accum) {
    averaged[pct] = slot.first / slot.second;
  }
  return averaged;
}

// Prints a gain_by_percentile result as two rows: the percentiles, then
// the gain at each in percent.
inline void print_gain_table(std::FILE* out,
                             const std::map<double, double>& gains) {
  std::fprintf(out, "%-12s", "percentile:");
  for (const auto& [pct, _] : gains) std::fprintf(out, " %5.0f", pct);
  std::fprintf(out, "\n%-12s", "gain %:");
  for (const auto& [_, g] : gains) std::fprintf(out, " %5.1f", 100.0 * g);
  std::fprintf(out, "\n");
}

inline int find_pop(const std::vector<cdn::PopSpec>& specs,
                    const std::string& name) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace riptide::bench
