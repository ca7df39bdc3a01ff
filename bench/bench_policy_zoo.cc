// bench_policy_zoo — the "when is jump-starting safe?" matrix.
//
// Runs every point of {initcwnd policy} x {route granularity} x {hostile
// scenario} on one fixed small-world CDN and reports, per point: goodput,
// p50/p99 flow completion time, retransmission pressure, and every
// SafetyGovernor action counter. The matrix is the evidence behind the
// robustness claim: a blind static IW50 wins the benign baseline but loses
// to the governed adaptive policy once the path turns hostile
// (shallow bottleneck queues, synchronized incast, flash crowds), because
// the governor's staged ladder sheds the boost before the loss spiral
// compounds.
//
// Policies (src/policy): static-iw10, static-iw50, adaptive,
// adaptive-governed, oracle. Granularities: /32, /24, /20. Scenarios
// (src/cdn/hostile.h): baseline, shallow-buffer, incast, flash-crowd.
//
// Usage: bench_policy_zoo [--quick] [--json] [--threads N]
//   --quick   shrink durations ~3x for CI smoke (numbers then not
//             comparable with the checked-in BENCH_policy.json)
//   --json    print the machine-readable JSON document on stdout after
//             the human-readable table (redirect as needed)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cdn/experiment.h"
#include "cdn/hostile.h"
#include "cdn/pops.h"
#include "policy/policy.h"
#include "runner/parallel_runner.h"
#include "stats/cdf.h"

namespace {

using namespace riptide;
using sim::Time;

struct Scenario {
  const char* name;
  const char* spec;  // parse_hostile_spec grammar; nullptr = baseline
};

// Tuned so the hostile cases bite within a 90 s run: a 24-packet
// bottleneck queue (vs the clean 4096) makes any >IW10 burst overflow on
// the first flight; the incast/crowd waves land hundreds of fresh
// connections inside one RTT.
const Scenario kScenarios[] = {
    {"baseline", nullptr},
    {"shallow-buffer", "shallow-buffer:queue=24"},
    {"incast", "incast:victim=0,fanin=16,burst=1000000,start=10,interval=10"},
    {"flash-crowd",
     "flash-crowd:at=15,conns=24,bytes=500000,repeats=3,period=20"},
};

const char* kPolicies[] = {"static-iw10", "static-iw50", "adaptive",
                           "adaptive-governed", "oracle"};
const int kGranularities[] = {32, 24, 20};

struct Cell {
  std::string policy;
  int granularity = 32;
  std::string scenario;
  double goodput_mbps = 0.0;
  double p50_fct_ms = 0.0;
  double p99_fct_ms = 0.0;
  std::size_t flows = 0;
  std::uint64_t retransmissions = 0;
  double retrans_per_mb = 0.0;
  std::uint64_t rollbacks = 0;
  std::uint64_t stage_scaledowns = 0;
  std::uint64_t stage_withdrawals = 0;
};

cdn::ExperimentConfig base_config(bool quick) {
  cdn::ExperimentConfig config;
  const auto& all = cdn::default_pop_specs();
  config.pop_specs.assign(all.begin(), all.begin() + 4);
  config.topology.hosts_per_pop = 2;
  // Constrained WAN under a 10 Gbps LAN: the 20x rate mismatch is what
  // makes an initial-window flight a *burst* at the bottleneck queue. At
  // equal rates the queue drains as fast as it fills and no IW choice can
  // overflow it, hostile or not.
  config.topology.wan_rate_bps = 500e6;
  config.riptide.update_interval = Time::seconds(2);
  config.probe.interval = Time::seconds(2);
  config.organic_source_pops = {0};
  config.duration = quick ? Time::seconds(30) : Time::seconds(90);
  config.cwnd_sample_interval = Time::seconds(15);
  config.seed = 11;
  return config;
}

Cell measure(const runner::RunResult& result, const std::string& policy,
             int granularity, const std::string& scenario) {
  const cdn::Experiment& exp = *result.experiment;
  Cell cell;
  cell.policy = policy;
  cell.granularity = granularity;
  cell.scenario = scenario;

  std::uint64_t bytes = 0;
  for (const auto& flow : exp.metrics().flows()) bytes += flow.object_bytes;
  const double seconds = exp.config().duration.to_seconds();
  cell.goodput_mbps = seconds > 0 ? bytes * 8.0 / seconds / 1e6 : 0.0;

  const auto fct = exp.metrics().completion_cdf(
      [](const cdn::FlowRecord&) { return true; });
  cell.flows = fct.count();
  if (!fct.empty()) {
    cell.p50_fct_ms = fct.percentile(50);
    cell.p99_fct_ms = fct.percentile(99);
  }

  cell.retransmissions = exp.topology().total_retransmissions();
  cell.retrans_per_mb =
      bytes > 0 ? cell.retransmissions / (bytes / 1e6) : 0.0;

  for (const auto& agent : exp.agents()) {
    cell.rollbacks += agent->stats().governor_rollbacks;
    cell.stage_scaledowns += agent->stats().governor_stage_scaledowns;
    cell.stage_withdrawals += agent->stats().governor_stage_withdrawals;
  }
  return cell;
}

// With --json the table goes to stderr so stdout stays a valid JSON
// document (ci.sh redirects stdout straight into BENCH_policy.ci.json).
void print_table(std::FILE* out, const std::vector<Cell>& cells) {
  std::fprintf(out, "%-18s %3s %-14s %9s %8s %8s %9s %5s %5s\n",
               "policy", "gran", "scenario", "goodput", "p50ms", "p99ms",
               "rt/MB", "roll", "stage");
  for (const auto& c : cells) {
    std::fprintf(out,
                 "%-18s %3d %-14s %9.2f %8.1f %8.1f %9.2f %5llu %5llu\n",
                 c.policy.c_str(), c.granularity, c.scenario.c_str(),
                 c.goodput_mbps, c.p50_fct_ms, c.p99_fct_ms,
                 c.retrans_per_mb,
                 static_cast<unsigned long long>(c.rollbacks),
                 static_cast<unsigned long long>(c.stage_scaledowns +
                                                 c.stage_withdrawals));
  }
}

const Cell* find(const std::vector<Cell>& cells, const std::string& policy,
                 int granularity, const std::string& scenario) {
  for (const auto& c : cells) {
    if (c.policy == policy && c.granularity == granularity &&
        c.scenario == scenario) {
      return &c;
    }
  }
  return nullptr;
}

void print_json(const std::vector<Cell>& cells, bool quick) {
  std::printf("{\n");
  std::printf("  \"pr\": \"hostile-scenario stress suite + initcwnd policy "
              "zoo\",\n");
  std::printf("  \"bench\": \"bench_policy_zoo%s --json (Release)\",\n",
              quick ? " --quick" : "");
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"workload\": \"4 PoPs x 2 hosts, probe mesh at 2 s "
              "cadence, organic traffic on PoP 0, %s simulated, seed 11; "
              "hostile scenarios per src/cdn/hostile.h with the specs "
              "recorded below\",\n",
              quick ? "30 s" : "90 s");
  std::printf("  \"scenario_specs\": {");
  bool first = true;
  for (const auto& s : kScenarios) {
    if (s.spec == nullptr) continue;
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", s.name, s.spec);
    first = false;
  }
  std::printf("},\n");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::printf(
        "    {\"policy\": \"%s\", \"granularity\": %d, \"scenario\": "
        "\"%s\", \"goodput_mbps\": %.3f, \"p50_fct_ms\": %.2f, "
        "\"p99_fct_ms\": %.2f, \"flows\": %zu, \"retransmissions\": %llu, "
        "\"retrans_per_mb\": %.3f, \"rollbacks\": %llu, "
        "\"stage_scaledowns\": %llu, \"stage_withdrawals\": %llu}%s\n",
        c.policy.c_str(), c.granularity, c.scenario.c_str(), c.goodput_mbps,
        c.p50_fct_ms, c.p99_fct_ms, c.flows,
        static_cast<unsigned long long>(c.retransmissions), c.retrans_per_mb,
        static_cast<unsigned long long>(c.rollbacks),
        static_cast<unsigned long long>(c.stage_scaledowns),
        static_cast<unsigned long long>(c.stage_withdrawals),
        i + 1 < cells.size() ? "," : "");
  }
  std::printf("  ],\n");

  // The headline comparison the robustness claim rests on: blind IW50 vs
  // the governed adaptive agent, both at host granularity, on each
  // hostile scenario.
  std::printf("  \"headline\": [\n");
  bool first_row = true;
  for (const auto& s : kScenarios) {
    if (s.spec == nullptr) continue;
    const Cell* iw50 = find(cells, "static-iw50", 32, s.name);
    const Cell* governed = find(cells, "adaptive-governed", 32, s.name);
    if (iw50 == nullptr || governed == nullptr) continue;
    const bool governed_wins = governed->p99_fct_ms < iw50->p99_fct_ms &&
                               governed->goodput_mbps >= iw50->goodput_mbps;
    std::printf(
        "    %s{\"scenario\": \"%s\", \"iw50_p99_fct_ms\": %.2f, "
        "\"governed_p99_fct_ms\": %.2f, \"iw50_goodput_mbps\": %.3f, "
        "\"governed_goodput_mbps\": %.3f, \"governed_wins\": %s}",
        first_row ? "" : ",\n", s.name, iw50->p99_fct_ms,
        governed->p99_fct_ms, iw50->goodput_mbps, governed->goodput_mbps,
        governed_wins ? "true" : "false");
    first_row = false;
  }
  std::printf("\n  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json] [--threads N]\n", argv[0]);
      return 2;
    }
  }

#ifndef NDEBUG
  std::fprintf(stderr,
               "bench_policy_zoo: assertions enabled; use a Release build "
               "for meaningful numbers\n");
#endif

  std::vector<runner::RunSpec> specs;
  struct Point {
    std::string policy;
    int granularity;
    std::string scenario;
  };
  std::vector<Point> points;
  for (const char* policy : kPolicies) {
    for (int granularity : kGranularities) {
      for (const auto& scenario : kScenarios) {
        const std::string name =
            granularity == 32
                ? std::string(policy)
                : std::string(policy) + "@" + std::to_string(granularity);
        cdn::ExperimentConfig config = base_config(quick);
        if (scenario.spec != nullptr) {
          config.hostile = cdn::parse_hostile_spec(scenario.spec);
        }
        policy::apply_policy(config, policy::parse_policy(name));
        runner::RunSpec spec;
        spec.label = name + "/" + scenario.name;
        spec.config = std::move(config);
        specs.push_back(std::move(spec));
        points.push_back(Point{policy, granularity, scenario.name});
      }
    }
  }

  std::fprintf(stderr, "bench_policy_zoo: %zu runs (%s)...\n", specs.size(),
               quick ? "quick" : "full");
  const auto results = runner::ParallelRunner(threads).run(std::move(specs));

  std::vector<Cell> cells;
  cells.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    cells.push_back(measure(results[i], points[i].policy,
                            points[i].granularity, points[i].scenario));
  }

  print_table(json ? stderr : stdout, cells);
  if (json) print_json(cells, quick);
  return 0;
}
