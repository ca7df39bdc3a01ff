// CC-regime matrix: does Riptide's jump-start still pay off when the
// congestion controller is smarter than stock slow-start?
//
// For each regime in {reno, cubic, cubic-fast (HyStart + pacing), bbr
// (BBR-lite + pacing)} this runs the Fig 15/16 percentile harness as a
// treatment/control sweep (riptide on vs off, same seeds), then prints
// the fraction-of-gain-by-percentile tables from the European (lon) PoP
// and a p50/p90/p95 headline per regime.
//
// The question the matrix answers: HyStart and BBR shorten slow-start on
// their own, so how much of the paper's upper-percentile win survives
// once the baseline controller is no longer the bottleneck? (Answer from
// the checked-in BENCH_cc.json: most of it — jump-start removes the
// first-RTT probing that even BBR's STARTUP must pay, so gains compress
// but do not vanish.)
//
// --quick shrinks the simulated window for CI smoke runs; quick numbers
// are marked in the JSON and are not comparable with full runs.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cdn/experiment.h"
#include "runner/parallel_runner.h"
#include "runner/sweep.h"
#include "runner/task_pool.h"
#include "stats/perf.h"
#include "tcp/config.h"

using namespace riptide;

namespace {

struct Regime {
  const char* name;
  tcp::RouteCc cc;
};

constexpr Regime kRegimes[] = {
    {"reno", tcp::RouteCc::kReno},
    {"cubic", tcp::RouteCc::kCubic},
    {"cubic-fast", tcp::RouteCc::kCubicFast},
    {"bbr", tcp::RouteCc::kBbrLite},
};

double gain_at(const std::map<double, double>& gains, double pct) {
  const auto it = gains.find(pct);
  return it == gains.end() ? 0.0 : 100.0 * it->second;
}

// Pooled completion-time CDF over every destination from src (for the
// absolute-ms columns in the JSON record).
stats::Cdf pooled_cdf(const std::vector<const cdn::Experiment*>& runs,
                      int src, std::uint64_t size, std::size_t pop_count) {
  stats::Cdf pooled;
  for (std::size_t dst = 0; dst < pop_count; ++dst) {
    if (static_cast<int>(dst) == src) continue;
    for (const cdn::Experiment* run : runs) {
      pooled.add_all(
          run->probe_cdf(src, size, static_cast<int>(dst)).sorted_samples());
    }
  }
  return pooled;
}

std::uint64_t total_retransmissions(
    const std::vector<const cdn::Experiment*>& runs) {
  std::uint64_t total = 0;
  for (const cdn::Experiment* run : runs) {
    total += run->topology().total_retransmissions();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick is matrix-specific; strip it before the shared parser sees it.
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  const auto opt = bench::parse_bench_options(static_cast<int>(args.size()),
                                              args.data());
  // With --json the tables go to stderr so stdout stays valid JSONL for
  // tools/bench_diff.py (the bench_policy_zoo convention).
  std::FILE* hum = opt.json ? stderr : stdout;

  const sim::Time window =
      quick ? sim::Time::seconds(60) : sim::Time::minutes(3);

  struct RegimeResult {
    std::string name;
    // size -> averaged gain-by-percentile map
    std::map<std::uint64_t, std::map<double, double>> gains;
    std::map<std::uint64_t, stats::Cdf> pooled_with, pooled_without;
    std::uint64_t retx_with = 0, retx_without = 0;
    std::size_t runs = 0;
  };
  std::vector<RegimeResult> summary;

  const runner::ParallelRunner pool(opt.threads);
  const auto sweep_start = std::chrono::steady_clock::now();
  double sum_run_seconds = 0.0;
  std::size_t total_runs = 0;

  for (const Regime& regime : kRegimes) {
    auto base = bench::paper_world(/*riptide=*/true);
    base.duration = window;
    bench::apply_trace(base, opt);
    // Host-wide regime for every connection in the world, exactly what a
    // fleet-wide `--cc` rollout or a `default,cc=` policy would install.
    tcp::apply_route_cc(regime.cc, base.topology.host_tcp);

    auto specs = runner::SweepSpec(base)
                     .seeds(opt.seeds)
                     .treatment_control()
                     .materialize();
    const auto results = pool.run(std::move(specs));

    // Expansion order is seed-major with treatment before control.
    std::vector<const cdn::Experiment*> treatment, control;
    for (const auto& result : results) {
      sum_run_seconds += result.wall_seconds;
      (result.index % 2 == 0 ? treatment : control)
          .push_back(result.experiment.get());
    }
    total_runs += results.size();

    const std::size_t pops = treatment.front()->topology().pop_count();
    const int eu = bench::find_pop(base.pop_specs, "lon");

    RegimeResult& out = summary.emplace_back();
    out.name = regime.name;
    out.runs = results.size();
    out.retx_with = total_retransmissions(treatment);
    out.retx_without = total_retransmissions(control);

    std::fprintf(hum,
                 "=== regime %s (riptide on vs off, %zu seed(s), %s window) "
                 "===\n",
                 regime.name, opt.seeds.size(), quick ? "quick" : "full");
    for (std::uint64_t size : {50'000u, 100'000u}) {
      out.gains[size] =
          bench::gain_by_percentile(treatment, control, eu, size, pops);
      out.pooled_with[size] = pooled_cdf(treatment, eu, size, pops);
      out.pooled_without[size] = pooled_cdf(control, eu, size, pops);
      std::fprintf(hum,
                   "%llu KB probes from lon, averaged across destinations:\n",
                   static_cast<unsigned long long>(size / 1000));
      bench::print_gain_table(hum, out.gains[size]);
    }
    std::fprintf(hum, "\n");
  }

  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  // Headline: what jump-start is still worth under each controller.
  for (int i = 0; i < 100; ++i) std::fputc('-', hum);
  std::fputc('\n', hum);
  std::fprintf(hum,
               "jump-start gain (completion-time reduction, 50 KB, lon):\n");
  std::fprintf(hum, "%-12s %8s %8s %8s   %s\n", "regime", "p50", "p90", "p95",
               "p90 ms without -> with riptide");
  for (const auto& r : summary) {
    const auto& g = r.gains.at(50'000u);
    std::fprintf(hum, "%-12s %7.1f%% %7.1f%% %7.1f%%   %.1f -> %.1f\n",
                 r.name.c_str(), gain_at(g, 50.0), gain_at(g, 90.0),
                 gain_at(g, 95.0),
                 r.pooled_without.at(50'000u).percentile(90.0),
                 r.pooled_with.at(50'000u).percentile(90.0));
  }
  std::fprintf(hum,
               "sweep: %zu runs on %u worker(s): %.2f s wall, %.2f s summed "
               "run time\n",
               total_runs, runner::effective_threads(opt.threads, total_runs),
               sweep_seconds, sum_run_seconds);

  if (opt.json) {
    // One line per regime x probe size, keyed by "workload" so
    // tools/bench_diff.py pairs the same cell across captures.
    for (const auto& r : summary) {
      for (std::uint64_t size : {50'000u, 100'000u}) {
        const auto& g = r.gains.at(size);
        const auto& with = r.pooled_with.at(size);
        const auto& without = r.pooled_without.at(size);
        std::printf(
            "{\"bench\":\"cc_matrix\",\"workload\":\"%s/%lluKB\","
            "\"quick\":%s,\"seeds\":%zu,"
            "\"gain_pct\":{\"p50\":%.2f,\"p75\":%.2f,\"p90\":%.2f,"
            "\"p95\":%.2f},"
            "\"without_ms\":{\"p50\":%.2f,\"p90\":%.2f,\"p99\":%.2f},"
            "\"with_ms\":{\"p50\":%.2f,\"p90\":%.2f,\"p99\":%.2f},"
            "\"retx_without\":%llu,\"retx_with\":%llu}\n",
            r.name.c_str(), static_cast<unsigned long long>(size / 1000),
            quick ? "true" : "false", opt.seeds.size(), gain_at(g, 50.0),
            gain_at(g, 75.0), gain_at(g, 90.0), gain_at(g, 95.0),
            without.percentile(50.0), without.percentile(90.0),
            without.percentile(99.0), with.percentile(50.0),
            with.percentile(90.0), with.percentile(99.0),
            static_cast<unsigned long long>(r.retx_without),
            static_cast<unsigned long long>(r.retx_with));
      }
    }
    std::printf("{\"bench\":\"cc_matrix\",\"workload\":\"sweep\","
                "\"runs\":%zu,\"threads\":%u,\"wall_seconds\":%.3f,"
                "\"sum_run_seconds\":%.3f}\n",
                total_runs,
                runner::effective_threads(opt.threads, total_runs),
                sweep_seconds, sum_run_seconds);
  }
  return 0;
}
