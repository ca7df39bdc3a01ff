// bench_hybrid — the hybrid-fidelity cross-traffic model, measured.
//
// A ~million-cross-flow workload simulated twice — full packet-level
// (organic TCP transfers) vs flow-level fluid aggregates
// (flow/flow_traffic.h) — with identical probe meshes. Reports the
// event-count ratio (the whole point of hybrid fidelity: the fluid model
// costs ~2 events per cross flow instead of 2 per *packet*) and the probe
// completion percentiles under both, which must agree within noise.
//
// Usage: bench_hybrid [--quick] [--json]
//   --quick   scale durations down 10x for CI smoke (the emitted numbers
//             are then not comparable with the checked-in
//             BENCH_hybrid.json)
//   --json    print the machine-readable JSON document on stdout after
//             the human-readable summary (redirect as needed)

#include <chrono>
#include <cstdio>
#include <cstring>

#include "cdn/experiment.h"
#include "cdn/pops.h"
#include "stats/cdf.h"
#include "stats/perf.h"

namespace {

using namespace riptide;
using sim::Time;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunCost {
  std::uint64_t events = 0;
  std::uint64_t flow_arrivals = 0;
  double wall_seconds = 0;
};

// Runs one experiment and captures the perf-counter deltas.
RunCost run_and_measure(cdn::Experiment& exp) {
  const perf::Counters before = perf::local();
  const double t0 = wall_now();
  exp.run();
  RunCost cost;
  cost.wall_seconds = wall_now() - t0;
  const perf::Counters delta = perf::local().delta_since(before);
  cost.events = delta.events_dispatched;
  cost.flow_arrivals = delta.flow_level_flows;
  return cost;
}

double probe_p(const cdn::Experiment& exp, std::uint64_t size, double pct) {
  const auto cdf = exp.metrics().completion_cdf(
      [=](const cdn::FlowRecord& f) { return f.object_bytes == size; });
  return cdf.empty() ? 0.0 : cdf.percentile(pct);
}

// 4 PoPs, full probe mesh, cross traffic on all 12 directed WAN pairs.
// Packet level: one organic TCP source per PoP pushing size-distributed
// transfers to random peers. Hybrid: the fluid model at the same flow
// arrival rate and mean size per link. Sizes are kept small (~27 KB mean)
// so the packet-level side stays runnable; a million 27 KB flows is still
// ~45 packet events per flow vs ~2 fluid events.

constexpr double kFullFlowsPerLink = 139.0;  // x 12 links x 600 s ~ 1.0M
constexpr double kMeanFlowBytes = 27e3;

cdn::ExperimentConfig hybrid_base(bool quick) {
  cdn::ExperimentConfig config;
  const auto& all = cdn::default_pop_specs();
  config.pop_specs.assign(all.begin(), all.begin() + 4);
  config.topology.hosts_per_pop = 1;
  config.topology.wan_loss_probability = 2e-4;
  // Riptide learning is OFF for the fidelity comparison: agents would
  // harvest windows from the packet-level organic connections (Fig 11),
  // which the fluid model deliberately does not create — that's a modeling
  // boundary, not noise, and it would swamp the congestion comparison the
  // hybrid model is accountable for.
  config.riptide_enabled = false;
  config.probe.interval = Time::seconds(5);
  config.probe.idle_close = Time::seconds(10);
  config.duration = quick ? Time::seconds(60) : Time::seconds(600);
  config.cwnd_sample_interval = Time::seconds(30);
  config.seed = 11;
  return config;
}

cdn::ExperimentConfig packet_level_config(bool quick) {
  cdn::ExperimentConfig config = hybrid_base(quick);
  // Organic sources are per-PoP and pick a random destination per
  // transfer, so a per-link rate of F means a per-source rate of
  // F * (pops - 1).
  cdn::OrganicSourceConfig organic;
  organic.mean_interarrival_seconds = 1.0 / (kFullFlowsPerLink * 3);
  // Two-component lognormal with ~27 KB mean — same mean the fluid model
  // below is given, so both runs offer the same load.
  cdn::FileSizeDistribution::Params sizes;
  sizes.weight_small = 0.5;
  sizes.mu_small = 8.006;      // ln(3000)
  sizes.sigma_small = 1.0;
  sizes.mu_large = 10.309;     // ln(30000)
  sizes.sigma_large = 1.0;
  sizes.max_bytes = 10ull * 1024 * 1024;
  organic.sizes = cdn::FileSizeDistribution(sizes);
  config.organic = organic;
  config.organic_source_pops = {0, 1, 2, 3};
  return config;
}

cdn::ExperimentConfig hybrid_config(bool quick) {
  cdn::ExperimentConfig config = hybrid_base(quick);
  config.flow_traffic.enabled = true;  // all PoPs by default
  config.flow_traffic.model.flows_per_second = kFullFlowsPerLink;
  config.flow_traffic.model.mean_flow_bytes = kMeanFlowBytes;
  config.flow_traffic.model.pareto_alpha = 0.0;  // exponential sizes
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json]\n", argv[0]);
      return 2;
    }
  }
#ifdef __OPTIMIZE__
  const char* build = "optimized";
#else
  const char* build = "unoptimized";
  std::fprintf(stderr, "WARNING: unoptimized build; numbers are "
                       "meaningless. Use -DCMAKE_BUILD_TYPE=Release.\n");
#endif

  std::printf("== hybrid fidelity: 4 PoPs, ~%s cross flows, %s ==\n",
              quick ? "100k" : "1M", quick ? "60 s (quick)" : "600 s");

  cdn::ExperimentConfig pkt_config = packet_level_config(quick);
  cdn::Experiment pkt(pkt_config);
  const RunCost pkt_cost = run_and_measure(pkt);
  std::uint64_t pkt_flows = 0;
  for (const auto& src : pkt.organic_sources()) {
    pkt_flows += src->transfers_started();
  }

  cdn::ExperimentConfig hyb_config = hybrid_config(quick);
  cdn::Experiment hyb(hyb_config);
  const RunCost hyb_cost = run_and_measure(hyb);
  std::uint64_t hyb_flows = 0;
  for (const auto& load : hyb.flow_loads()) {
    hyb_flows += load->flows_started();
  }

  const double ratio = hyb_cost.events > 0
                           ? static_cast<double>(pkt_cost.events) /
                                 static_cast<double>(hyb_cost.events)
                           : 0.0;
  std::printf("  %-14s %14s %12s %10s %10s %10s\n", "fidelity", "events",
              "cross flows", "wall s", "p50 100KB", "p90 100KB");
  std::printf("  %-14s %14llu %12llu %10.2f %10.0f %10.0f\n", "packet-level",
              static_cast<unsigned long long>(pkt_cost.events),
              static_cast<unsigned long long>(pkt_flows),
              pkt_cost.wall_seconds, probe_p(pkt, 100'000, 50),
              probe_p(pkt, 100'000, 90));
  std::printf("  %-14s %14llu %12llu %10.2f %10.0f %10.0f\n", "hybrid",
              static_cast<unsigned long long>(hyb_cost.events),
              static_cast<unsigned long long>(hyb_flows),
              hyb_cost.wall_seconds, probe_p(hyb, 100'000, 50),
              probe_p(hyb, 100'000, 90));
  std::printf("  packet-level / hybrid event ratio: %.1fx (target >= 5x)\n",
              ratio);

  if (json) {
    std::printf("{\"bench\":\"hybrid\",\"build\":\"%s\",\"quick\":%s,"
                "\"hybrid\":{"
                "\"packet_level\":{\"events\":%llu,\"cross_flows\":%llu,"
                "\"wall_seconds\":%.2f,\"probe_p50_ms\":%.1f,"
                "\"probe_p90_ms\":%.1f},"
                "\"flow_level\":{\"events\":%llu,\"cross_flows\":%llu,"
                "\"wall_seconds\":%.2f,\"probe_p50_ms\":%.1f,"
                "\"probe_p90_ms\":%.1f,\"fluid_arrivals\":%llu},"
                "\"event_ratio\":%.2f}}\n",
                build, quick ? "true" : "false",
                static_cast<unsigned long long>(pkt_cost.events),
                static_cast<unsigned long long>(pkt_flows),
                pkt_cost.wall_seconds, probe_p(pkt, 100'000, 50),
                probe_p(pkt, 100'000, 90),
                static_cast<unsigned long long>(hyb_cost.events),
                static_cast<unsigned long long>(hyb_flows),
                hyb_cost.wall_seconds, probe_p(hyb, 100'000, 50),
                probe_p(hyb, 100'000, 90),
                static_cast<unsigned long long>(hyb_cost.flow_arrivals),
                ratio);
  }
  return 0;
}
