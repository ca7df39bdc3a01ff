#include <gtest/gtest.h>

#include "bench_util.h"
#include "cdn/experiment.h"
#include "cdn/pops.h"
#include "stats/perf.h"

namespace riptide::cdn {
namespace {

using sim::Time;

// Compact 4-PoP world used by the closed-loop tests: one near pair and two
// far destinations, one host per PoP.
std::vector<PopSpec> mini_specs() {
  return {{"lon", Continent::kEurope, {51.51, -0.13}},
          {"fra", Continent::kEurope, {50.11, 8.68}},
          {"nyc", Continent::kNorthAmerica, {40.71, -74.01}},
          {"tyo", Continent::kAsia, {35.68, 139.69}}};
}

ExperimentConfig mini_config(bool riptide_enabled, std::uint64_t seed = 1) {
  ExperimentConfig config;
  config.pop_specs = mini_specs();
  config.topology.hosts_per_pop = 1;
  config.topology.wan_loss_probability = 0.0;  // deterministic timings
  config.topology.seed = seed;
  config.riptide_enabled = riptide_enabled;
  config.riptide.update_interval = Time::seconds(1);
  config.riptide.c_max = 100;
  config.probe.interval = Time::seconds(5);
  config.probe.idle_close = Time::seconds(10);
  config.duration = Time::seconds(90);
  config.cwnd_sample_interval = Time::seconds(10);
  config.seed = seed;
  return config;
}

int pop_index(const std::vector<PopSpec>& specs, const std::string& name) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

TEST(ExperimentIntegrationTest, ProbesFlowAndAreRecorded) {
  Experiment exp(mini_config(/*riptide=*/false));
  exp.run();
  const auto& flows = exp.metrics().flows();
  // 4 PoPs x 3 targets x 3 sizes, every 5 s over 90 s: hundreds of flows.
  EXPECT_GT(flows.size(), 300u);
  for (const auto& flow : flows) {
    EXPECT_GT(flow.duration, Time::zero());
    EXPECT_GE(flow.src_pop, 0);
    EXPECT_GE(flow.dst_pop, 0);
    EXPECT_NE(flow.src_pop, flow.dst_pop);
  }
  // All three probe sizes present.
  for (std::uint64_t size : {10'000u, 50'000u, 100'000u}) {
    const auto cdf = exp.metrics().completion_cdf(
        [=](const FlowRecord& f) { return f.object_bytes == size; });
    EXPECT_GT(cdf.count(), 50u) << size;
  }
}

TEST(ExperimentIntegrationTest, AgentsLearnRoutesOnEveryHost) {
  Experiment exp(mini_config(/*riptide=*/true));
  exp.run();
  ASSERT_EQ(exp.agents().size(), 4u);
  for (const auto& agent : exp.agents()) {
    EXPECT_GT(agent->stats().polls, 80u);
    EXPECT_GT(agent->stats().routes_set, 0u);
    EXPECT_FALSE(agent->table().entries().empty());
  }
}

TEST(ExperimentIntegrationTest, RiptideRaisesLearnedWindowsTowardCmax) {
  Experiment exp(mini_config(/*riptide=*/true));
  exp.run();
  // After 90 s of 100 KB probes, at least one destination per host should
  // have ratcheted well past the default window of 10.
  for (const auto& agent : exp.agents()) {
    double best = 0.0;
    for (const auto& [dst, state] : agent->table().entries()) {
      best = std::max(best, state.final_window_segments);
    }
    EXPECT_GT(best, 30.0) << agent->host().name();
    EXPECT_LE(best, 100.0) << agent->host().name();  // c_max bound
  }
}

TEST(ExperimentIntegrationTest, FreshLargeProbesCompleteFasterWithRiptide) {
  auto treatment_cfg = mini_config(true);
  auto control_cfg = mini_config(false);
  Experiment treatment(treatment_cfg);
  Experiment control(control_cfg);
  treatment.run();
  control.run();

  const int lon = pop_index(mini_specs(), "lon");
  const int tyo = pop_index(mini_specs(), "tyo");

  // 100 KB to a far destination: IW10 needs 3 data RTTs, learned windows
  // need 1. Compare medians of fresh-connection probes.
  const auto treated = treatment.probe_cdf(lon, 100'000, tyo, /*fresh=*/true);
  const auto baseline = control.probe_cdf(lon, 100'000, tyo, /*fresh=*/true);
  ASSERT_GT(treated.count(), 10u);
  ASSERT_GT(baseline.count(), 10u);

  const double rtt_ms =
      treatment.topology().base_rtt(static_cast<std::size_t>(lon),
                                    static_cast<std::size_t>(tyo))
          .to_milliseconds();
  // At least one full RTT saved at the median.
  EXPECT_LT(treated.percentile(50), baseline.percentile(50) - rtt_ms * 0.9);
}

TEST(ExperimentIntegrationTest, SmallProbesUnaffectedByRiptide) {
  // Fig 12's expectation: 10 KB already fits in IW10, so Riptide must not
  // change (or harm) its completion time.
  Experiment treatment(mini_config(true));
  Experiment control(mini_config(false));
  treatment.run();
  control.run();

  const int lon = pop_index(mini_specs(), "lon");
  const int nyc = pop_index(mini_specs(), "nyc");
  const auto treated = treatment.probe_cdf(lon, 10'000, nyc);
  const auto baseline = control.probe_cdf(lon, 10'000, nyc);
  ASSERT_GT(treated.count(), 10u);
  ASSERT_GT(baseline.count(), 10u);
  EXPECT_NEAR(treated.percentile(50), baseline.percentile(50),
              baseline.percentile(50) * 0.10);
}

TEST(ExperimentIntegrationTest, LiveWindowsLargerUnderRiptide) {
  // Fig 10's headline: the sampled cwnd distribution shifts up (the paper
  // reports a 100-200% median increase).
  Experiment treatment(mini_config(true));
  Experiment control(mini_config(false));
  treatment.run();
  control.run();

  const auto treated = treatment.metrics().cwnd_cdf();
  const auto baseline = control.metrics().cwnd_cdf();
  ASSERT_GT(treated.count(), 50u);
  ASSERT_GT(baseline.count(), 50u);
  EXPECT_GT(treated.percentile(50), baseline.percentile(50) * 1.5);
  // And the c_max clamp holds: no programmed window exceeds 100, so fresh
  // idle connections can't sit above it (grown ones may).
  EXPECT_LE(treated.percentile(50), 250.0);
}

TEST(ExperimentIntegrationTest, DeterministicAcrossIdenticalSeeds) {
  Experiment a(mini_config(true, 7));
  Experiment b(mini_config(true, 7));
  a.run();
  b.run();
  ASSERT_EQ(a.metrics().flows().size(), b.metrics().flows().size());
  for (std::size_t i = 0; i < a.metrics().flows().size(); ++i) {
    EXPECT_EQ(a.metrics().flows()[i].duration.ns(),
              b.metrics().flows()[i].duration.ns());
  }
}

TEST(ExperimentIntegrationTest, OrganicTrafficDrivesWindowsHigher) {
  // Fig 11: a PoP pushing organic traffic reaches much larger windows than
  // a probe-only PoP.
  auto config = mini_config(true);
  config.organic_source_pops = {0};  // lon pushes organic traffic
  config.organic.mean_interarrival_seconds = 0.5;
  Experiment exp(config);
  exp.run();

  const auto organic_pop = exp.metrics().cwnd_cdf(0);
  const auto probe_pop = exp.metrics().cwnd_cdf(2);
  ASSERT_GT(organic_pop.count(), 20u);
  ASSERT_GT(probe_pop.count(), 20u);
  EXPECT_GT(organic_pop.percentile(75), probe_pop.percentile(75));
}

TEST(ExperimentIntegrationTest, LossyWanStillCompletesProbes) {
  auto config = mini_config(true);
  config.topology.wan_loss_probability = 0.003;
  Experiment exp(config);
  exp.run();
  EXPECT_GT(exp.metrics().flows().size(), 250u);
}

TEST(PaperWorldSteadyStateTest, NoSlabRefillsAndFlatSocketCountOnceWarm) {
  // The paper world on its first 8 PoPs. Past warm-up (t = 60 s) the
  // segment pool recycles every segment, so the run takes no further slab
  // from the heap, and sockets close as fast as they open: the live total
  // stays within 10 % of its t = 60 s value to the end (120 s).
  ExperimentConfig config = bench::paper_world(/*riptide_enabled=*/true);
  config.pop_specs.erase(config.pop_specs.begin() + 8, config.pop_specs.end());
  config.duration = Time::seconds(120);
  Experiment exp(config);
  const auto live_sockets = [&exp] {
    std::size_t total = 0;
    for (const host::Host* host : exp.topology().all_hosts()) {
      total += host->connection_count();
    }
    return total;
  };

  exp.simulator().run_until(Time::seconds(60));
  const std::uint64_t heap_allocs = perf::local().segment_heap_allocs;
  const std::size_t warm = live_sockets();
  ASSERT_GT(warm, 0u);
  for (int t = 61; t <= 120; ++t) {
    exp.simulator().run_until(Time::seconds(t));
    const double ratio = static_cast<double>(live_sockets()) / warm;
    EXPECT_NEAR(ratio, 1.0, 0.10) << "t = " << t << " s, warm = " << warm;
  }
  EXPECT_EQ(perf::local().segment_heap_allocs, heap_allocs);
}

}  // namespace
}  // namespace riptide::cdn
