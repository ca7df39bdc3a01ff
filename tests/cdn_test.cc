#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cdn/experiment.h"
#include "cdn/file_size_dist.h"
#include "cdn/geo.h"
#include "cdn/metrics.h"
#include "cdn/pops.h"
#include "cdn/probe.h"
#include "cdn/topology.h"
#include "stats/cdf.h"

namespace riptide::cdn {
namespace {

using sim::Time;

// -------------------------------------------------------------------- geo

TEST(GeoTest, HaversineKnownDistances) {
  const GeoPoint london{51.51, -0.13};
  const GeoPoint nyc{40.71, -74.01};
  const GeoPoint sydney{-33.87, 151.21};
  // London-NYC great circle is ~5570 km.
  EXPECT_NEAR(haversine_km(london, nyc), 5570.0, 100.0);
  // London-Sydney ~17000 km.
  EXPECT_NEAR(haversine_km(london, sydney), 16990.0, 300.0);
}

TEST(GeoTest, ZeroDistanceForSamePoint) {
  const GeoPoint p{48.86, 2.35};
  EXPECT_DOUBLE_EQ(haversine_km(p, p), 0.0);
  EXPECT_EQ(propagation_delay(p, p), Time::zero());
}

TEST(GeoTest, PropagationDelayMatchesFibreSpeed) {
  const GeoPoint london{51.51, -0.13};
  const GeoPoint nyc{40.71, -74.01};
  // ~5570 km * 1.4 inflation / 200,000 km/s  ->  ~39 ms one way.
  const auto delay = propagation_delay(london, nyc);
  EXPECT_NEAR(delay.to_milliseconds(), 39.0, 3.0);
  // Inflation factor 1.0 is proportionally faster.
  const auto direct = propagation_delay(london, nyc, 1.0);
  EXPECT_NEAR(direct.to_milliseconds() * 1.4, delay.to_milliseconds(), 0.5);
}

TEST(GeoTest, DelayIsSymmetric) {
  const GeoPoint a{35.68, 139.69};
  const GeoPoint b{-23.55, -46.63};
  EXPECT_EQ(propagation_delay(a, b), propagation_delay(b, a));
}

// ------------------------------------------------------------------- pops

TEST(PopsTest, TableTwoContinentCounts) {
  const auto& specs = default_pop_specs();
  EXPECT_EQ(specs.size(), 34u);  // the paper's 34 PoPs
  const auto summary = continent_summary(specs);
  std::map<Continent, int> counts(summary.begin(), summary.end());
  EXPECT_EQ(counts[Continent::kEurope], 10);
  EXPECT_EQ(counts[Continent::kNorthAmerica], 11);
  EXPECT_EQ(counts[Continent::kSouthAmerica], 1);
  EXPECT_EQ(counts[Continent::kAsia], 9);
  EXPECT_EQ(counts[Continent::kOceania], 3);
}

TEST(PopsTest, NamesUnique) {
  const auto& specs = default_pop_specs();
  std::set<std::string> names;
  for (const auto& spec : specs) names.insert(spec.name);
  EXPECT_EQ(names.size(), specs.size());
}

TEST(PopsTest, ContinentNames) {
  EXPECT_STREQ(to_string(Continent::kEurope), "Europe");
  EXPECT_STREQ(to_string(Continent::kOceania), "Oceania");
}

// ---------------------------------------------------- FileSizeDistribution

TEST(FileSizeDistTest, CalibratedMassAbove15KB) {
  // Fig 2's headline statistic: 54% of files exceed the 15 KB that fit in
  // the default initial window.
  FileSizeDistribution dist;
  EXPECT_NEAR(dist.fraction_above(15'000.0), 0.54, 0.03);
}

TEST(FileSizeDistTest, LargeFilesDoNotDominate) {
  FileSizeDistribution dist;
  EXPECT_LT(dist.fraction_above(1'000'000.0), 0.10);
  EXPECT_GT(dist.fraction_above(1'000'000.0), 0.005);
}

TEST(FileSizeDistTest, CdfIsMonotoneAndBounded) {
  FileSizeDistribution dist;
  double prev = 0.0;
  for (double b : {100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}) {
    const double c = dist.cdf(b);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(dist.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(dist.cdf(-5.0), 0.0);
}

TEST(FileSizeDistTest, SamplesMatchAnalyticCdf) {
  FileSizeDistribution dist;
  sim::Rng rng(7);
  const int n = 50'000;
  int above_15k = 0;
  for (int i = 0; i < n; ++i) {
    if (dist.sample(rng) > 15'000) ++above_15k;
  }
  EXPECT_NEAR(static_cast<double>(above_15k) / n,
              dist.fraction_above(15'000.0), 0.01);
}

TEST(FileSizeDistTest, SamplesRespectClamp) {
  FileSizeDistribution::Params p;
  p.min_bytes = 500;
  p.max_bytes = 1'000'000;
  FileSizeDistribution dist(p);
  sim::Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const auto s = dist.sample(rng);
    EXPECT_GE(s, 500u);
    EXPECT_LE(s, 1'000'000u);
  }
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, RttBuckets) {
  EXPECT_EQ(bucket_for(10.0), RttBucket::kClose);
  EXPECT_EQ(bucket_for(49.9), RttBucket::kClose);
  EXPECT_EQ(bucket_for(50.0), RttBucket::kMedium);
  EXPECT_EQ(bucket_for(99.9), RttBucket::kMedium);
  EXPECT_EQ(bucket_for(100.0), RttBucket::kFar);
  EXPECT_EQ(bucket_for(150.0), RttBucket::kVeryFar);
  EXPECT_STREQ(to_string(RttBucket::kVeryFar), ">150ms");
}

TEST(MetricsTest, CompletionCdfFiltering) {
  MetricsCollector metrics;
  metrics.record_flow({0, 1, 50'000, Time::zero(), Time::milliseconds(100),
                       true, 80.0});
  metrics.record_flow({0, 2, 50'000, Time::zero(), Time::milliseconds(300),
                       false, 120.0});
  metrics.record_flow({1, 2, 10'000, Time::zero(), Time::milliseconds(50),
                       true, 120.0});

  const auto all_50k = metrics.completion_cdf(
      [](const FlowRecord& f) { return f.object_bytes == 50'000; });
  EXPECT_EQ(all_50k.count(), 2u);

  const auto fresh_only =
      metrics.completion_cdf([](const FlowRecord& f) { return f.fresh; });
  EXPECT_EQ(fresh_only.count(), 2u);
  EXPECT_DOUBLE_EQ(fresh_only.max(), 100.0);
}

TEST(MetricsTest, CwndCdfPerPop) {
  MetricsCollector metrics;
  metrics.record_cwnd({0, 10, Time::zero()});
  metrics.record_cwnd({0, 20, Time::zero()});
  metrics.record_cwnd({1, 90, Time::zero()});
  EXPECT_EQ(metrics.cwnd_cdf(0).count(), 2u);
  EXPECT_EQ(metrics.cwnd_cdf(1).count(), 1u);
  EXPECT_EQ(metrics.cwnd_cdf(-1).count(), 3u);
  EXPECT_DOUBLE_EQ(metrics.cwnd_cdf(0).max(), 20.0);
}

TEST(MetricsTest, LogsKeepEveryRecordInPlaceAndInOrder) {
  // Appending never moves an earlier record, and iteration and indexing
  // both follow insertion order, however long the logs grow.
  constexpr std::size_t kRecords = 20'000;
  MetricsCollector metrics;
  std::vector<const FlowRecord*> flow_at;
  std::vector<const CwndSample*> sample_at;
  for (std::size_t i = 0; i < kRecords; ++i) {
    metrics.record_flow({0, 1, i, Time::zero(), Time::milliseconds(1), true,
                         10.0});
    metrics.record_cwnd({0, static_cast<std::uint32_t>(i), Time::zero()});
    flow_at.push_back(&metrics.flows().back());
    sample_at.push_back(&metrics.cwnd_samples().back());
  }
  ASSERT_EQ(metrics.flows().size(), kRecords);
  ASSERT_EQ(metrics.cwnd_samples().size(), kRecords);
  std::size_t i = 0;
  for (const FlowRecord& flow : metrics.flows()) {
    ASSERT_EQ(&flow, flow_at[i]);
    ASSERT_EQ(flow.object_bytes, i);
    ++i;
  }
  i = 0;
  for (const CwndSample& sample : metrics.cwnd_samples()) {
    ASSERT_EQ(&sample, sample_at[i]);
    ASSERT_EQ(sample.cwnd_segments, i);
    ++i;
  }
  EXPECT_EQ(&metrics.flows()[kRecords / 2], flow_at[kRecords / 2]);
  EXPECT_EQ(&metrics.cwnd_samples()[kRecords / 2], sample_at[kRecords / 2]);
}

// --------------------------------------------------------------- topology

TopologyConfig small_topology_config() {
  TopologyConfig config;
  config.hosts_per_pop = 2;
  return config;
}

std::vector<PopSpec> small_specs() {
  return {{"lon", Continent::kEurope, {51.51, -0.13}},
          {"nyc", Continent::kNorthAmerica, {40.71, -74.01}},
          {"tyo", Continent::kAsia, {35.68, 139.69}}};
}

TEST(TopologyTest, BuildsPopsWithPrefixesAndHosts) {
  sim::Simulator sim;
  Topology topo(sim, small_topology_config(), small_specs());
  ASSERT_EQ(topo.pop_count(), 3u);
  EXPECT_EQ(topo.pops()[0].prefix, net::Prefix::parse("10.0.0.0/16"));
  EXPECT_EQ(topo.pops()[1].prefix, net::Prefix::parse("10.1.0.0/16"));
  EXPECT_EQ(topo.pops()[0].hosts.size(), 2u);
  EXPECT_EQ(topo.host(1, 0).address(), net::Ipv4Address(10, 1, 0, 1));
  EXPECT_EQ(topo.all_hosts().size(), 6u);
}

TEST(TopologyTest, PopOfResolvesAddresses) {
  sim::Simulator sim;
  Topology topo(sim, small_topology_config(), small_specs());
  EXPECT_EQ(topo.pop_of(net::Ipv4Address(10, 2, 0, 1)), 2);
  EXPECT_EQ(topo.pop_of(net::Ipv4Address(10, 1, 0, 2)), 1);
  EXPECT_EQ(topo.pop_of(net::Ipv4Address(192, 168, 0, 1)), -1);
}

TEST(TopologyTest, BaseRttSymmetricAndGeoPlausible) {
  sim::Simulator sim;
  Topology topo(sim, small_topology_config(), small_specs());
  EXPECT_EQ(topo.base_rtt(0, 1), topo.base_rtt(1, 0));
  // London-NYC: ~78 ms RTT at 1.4 inflation.
  EXPECT_NEAR(topo.base_rtt(0, 1).to_milliseconds(), 78.0, 8.0);
  // London-Tokyo much farther than London-NYC.
  EXPECT_GT(topo.base_rtt(0, 2), topo.base_rtt(0, 1) * 15 / 10);
}

TEST(TopologyTest, EndToEndTransferAcrossWan) {
  sim::Simulator sim;
  auto config = small_topology_config();
  config.wan_loss_probability = 0.0;
  Topology topo(sim, config, small_specs());

  std::uint64_t received = 0;
  topo.host(1, 0).listen(80, [&](tcp::TcpConnection& conn) {
    tcp::TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::uint64_t bytes) { received += bytes; };
    conn.set_callbacks(std::move(cbs));
  });
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = topo.host(0, 0).connect(topo.host(1, 0).address(), 80,
                                       std::move(cbs));
  sim.run_until(Time::milliseconds(200));
  ASSERT_TRUE(conn.established());
  conn.send(30'000);
  sim.run_until(Time::seconds(5));
  EXPECT_EQ(received, 30'000u);
}

TEST(TopologyTest, CrossPopRttMatchesBaseRtt) {
  sim::Simulator sim;
  auto config = small_topology_config();
  config.wan_loss_probability = 0.0;
  Topology topo(sim, config, small_specs());
  bool closed = false;
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_closed = [&closed](bool) { closed = true; };
  topo.host(0, 0).connect(topo.host(2, 0).address(), 9999, std::move(cbs));
  // RST from the far host comes back after ~1 base RTT; the host then
  // destroys the connection object, so observe closure via the callback.
  sim.run_until(Time::seconds(2));
  EXPECT_TRUE(closed);
}

TEST(TopologyTest, WanLinkAccessorsAndValidation) {
  sim::Simulator sim;
  Topology topo(sim, small_topology_config(), small_specs());
  EXPECT_NO_THROW(topo.wan_link(0, 1));
  EXPECT_THROW(topo.wan_link(1, 1), std::invalid_argument);
  const auto& link = topo.wan_link(0, 2);
  EXPECT_NEAR(link.config().propagation_delay.to_milliseconds(),
              topo.base_rtt(0, 2).to_milliseconds() / 2.0, 1.0);
}

TEST(TopologyTest, RejectsBadConfig) {
  sim::Simulator sim;
  EXPECT_THROW(Topology(sim, small_topology_config(), {}),
               std::invalid_argument);
  auto config = small_topology_config();
  config.hosts_per_pop = 0;
  EXPECT_THROW(Topology(sim, config, small_specs()), std::invalid_argument);
}

TEST(TopologyTest, FullPaperTopologyRttDistribution) {
  // Fig 5: over the 34-PoP mesh, the median inter-PoP RTT exceeds 125 ms.
  sim::Simulator sim;
  Topology topo(sim, TopologyConfig{});
  stats::Cdf rtts;
  for (std::size_t a = 0; a < topo.pop_count(); ++a) {
    for (std::size_t b = a + 1; b < topo.pop_count(); ++b) {
      rtts.add(topo.base_rtt(a, b).to_milliseconds());
    }
  }
  EXPECT_GT(rtts.percentile(50), 100.0);
  EXPECT_LT(rtts.percentile(50), 250.0);
  EXPECT_GT(rtts.max(), 250.0);
}

// ---------------------------------------------------------- probe helpers

TEST(ProbeSpecTest, DefaultSpecsMatchPaper) {
  const auto specs = default_probe_specs();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].object_bytes, 10'000u);
  EXPECT_EQ(specs[1].object_bytes, 50'000u);
  EXPECT_EQ(specs[2].object_bytes, 100'000u);
}

TEST(PercentileGainTest, ComputesRelativeImprovement) {
  stats::Cdf baseline;
  stats::Cdf treatment;
  for (int i = 1; i <= 100; ++i) {
    baseline.add(i * 2.0);
    treatment.add(i * 1.0);  // uniformly 2x faster
  }
  const auto gains = percentile_gains(baseline, treatment, 25.0);
  ASSERT_EQ(gains.size(), 3u);  // 25, 50, 75
  for (const auto& g : gains) {
    EXPECT_NEAR(g.gain_fraction, 0.5, 0.02);
  }
}

TEST(PercentileGainTest, EmptyInputsYieldNothing) {
  stats::Cdf empty;
  stats::Cdf some;
  some.add(1.0);
  EXPECT_TRUE(percentile_gains(empty, some).empty());
  EXPECT_TRUE(percentile_gains(some, empty).empty());
}

}  // namespace
}  // namespace riptide::cdn
