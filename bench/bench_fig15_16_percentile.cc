// Reproduces paper Figs 15 and 16 and the §IV-D edge-case analysis:
// the fraction of completion-time improvement by percentile (5% steps),
// averaged across destinations, for 50 KB (Fig 15) and 100 KB (Fig 16)
// probes from a European (lon) and a North American (nyc) PoP; plus the
// per-destination minimum and maximum (best/worst case) deltas.
//
// Paper shape: little change below the ~50th percentile, gains of ~20-30%
// in the upper percentiles, and near-zero change in the min/max edge
// cases.
//
// Runs as a treatment/control sweep over --seeds (default one seed) fanned
// across --threads workers; per-destination CDFs are merged across seeds
// before the percentile comparison, which tightens the distributional
// claim the same way the paper's 12-hour window does.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cdn/experiment.h"
#include "runner/parallel_runner.h"
#include "stats/perf.h"
#include "runner/sweep.h"
#include "runner/task_pool.h"
#include "bench_util.h"

using namespace riptide;

namespace {

// §IV-D: distribution of the per-destination change in the minimum (best
// case) and maximum (worst case) completion times.
void print_edge_cases(const std::vector<const cdn::Experiment*>& treatment,
                      const std::vector<const cdn::Experiment*>& control,
                      int src, std::uint64_t size, std::size_t pop_count) {
  int min_within_5 = 0, max_within_6 = 0, destinations = 0;
  for (std::size_t dst = 0; dst < pop_count; ++dst) {
    if (static_cast<int>(dst) == src) continue;
    const auto with =
        bench::merged_cdf(treatment, src, size, static_cast<int>(dst));
    const auto without =
        bench::merged_cdf(control, src, size, static_cast<int>(dst));
    if (with.count() < bench::kMinSamplesPerArm ||
        without.count() < bench::kMinSamplesPerArm) {
      continue;
    }
    ++destinations;
    const double min_delta = (without.min() - with.min()) / without.min();
    const double max_delta = (without.max() - with.max()) / without.max();
    if (std::abs(min_delta) <= 0.05) ++min_within_5;
    if (std::abs(max_delta) <= 0.06) ++max_within_6;
  }
  if (destinations == 0) return;
  std::printf("edge cases over %d destinations: min-case within +-5%% for "
              "%.0f%% (paper: 75-100%%), max-case within +-6%% for %.0f%% "
              "(paper: ~50%%, high variance)\n",
              destinations, 100.0 * min_within_5 / destinations,
              100.0 * max_within_6 / destinations);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_options(argc, argv);

  auto base = bench::paper_world(/*riptide=*/true);
  base.duration = sim::Time::minutes(4);
  bench::apply_trace(base, opt);

  auto specs = runner::SweepSpec(base)
                   .seeds(opt.seeds)
                   .treatment_control()
                   .materialize();

  const runner::ParallelRunner pool(opt.threads);
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = pool.run(std::move(specs));
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();

  // Expansion order is seed-major with treatment before control.
  std::vector<const cdn::Experiment*> treatment, control;
  double sum_run_seconds = 0.0;
  for (const auto& result : results) {
    sum_run_seconds += result.wall_seconds;
    (result.index % 2 == 0 ? treatment : control)
        .push_back(result.experiment.get());
  }

  const std::size_t pops = treatment.front()->topology().pop_count();
  const int eu = bench::find_pop(base.pop_specs, "lon");
  const int na = bench::find_pop(base.pop_specs, "nyc");

  int fig = 15;
  for (std::uint64_t size : {50'000u, 100'000u}) {
    std::printf("Fig %d: fraction of gain by percentile, %llu KB probes "
                "(averaged across destinations, %zu seed(s))\n",
                fig++, static_cast<unsigned long long>(size / 1000),
                opt.seeds.size());
    bench::print_rule();
    std::printf("(a) European PoP (lon):\n");
    bench::print_gain_table(
        stdout, bench::gain_by_percentile(treatment, control, eu, size, pops));
    std::printf("(b) North American PoP (nyc):\n");
    bench::print_gain_table(
        stdout, bench::gain_by_percentile(treatment, control, na, size, pops));
    if (size == 100'000u) {
      std::printf("\nSection IV-D edge cases (100 KB):\n");
      print_edge_cases(treatment, control, eu, size, pops);
      print_edge_cases(treatment, control, na, size, pops);
    }
    std::printf("\n");
  }
  std::printf("expected shape: flat/no change at low percentiles, gains "
              "concentrated ~50th-95th (paper: up to ~30%% / ~21%% for 50 KB,"
              " up to ~25%% for 100 KB)\n");
  std::printf("sweep: %zu runs on %u worker(s): %.2f s wall, %.2f s summed "
              "run time\n",
              results.size(),
              runner::effective_threads(opt.threads, results.size()),
              sweep_seconds, sum_run_seconds);
  if (opt.json) {
    // One line per run (arm + seed) so drop/safety counters stay
    // attributable, then the sweep summary line.
    for (const auto& result : results) {
      std::printf("{\"bench\":\"fig15_16\",\"run\":\"%s\",%s,\"perf\":%s}\n",
                  result.label.c_str(),
                  bench::safety_counters_json(*result.experiment).c_str(),
                  perf::to_run_json(result.perf).c_str());
    }
    std::printf("{\"bench\":\"fig15_16\",\"runs\":%zu,\"threads\":%u,"
                "\"wall_seconds\":%.3f,\"sum_run_seconds\":%.3f}\n",
                results.size(),
                runner::effective_threads(opt.threads, results.size()),
                sweep_seconds, sum_run_seconds);
  }
  return 0;
}
