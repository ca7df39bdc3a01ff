// The initcwnd policy zoo (src/policy): spec grammar round-trips, the
// static/oracle installers program the routes they claim, apply_policy
// rewrites experiment configs correctly, and the recommended governed
// pack is pinned.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "cdn/experiment.h"
#include "cdn/pops.h"
#include "faults/harness.h"
#include "policy/policy.h"
#include "sim/time.h"

namespace riptide {
namespace {

using policy::parse_policy;
using policy::PolicyKind;
using policy::PolicySpec;
using sim::Time;

TEST(PolicyParseTest, CanonicalNamesRoundTrip) {
  for (const char* name :
       {"default", "static-iw10", "static-iw50@24", "static-iw1",
        "adaptive", "adaptive-governed", "adaptive@20",
        "adaptive-governed@24", "oracle", "oracle@8"}) {
    EXPECT_EQ(policy::to_string(parse_policy(name)), name) << name;
  }
}

TEST(PolicyParseTest, FieldsAreDecodedNotJustEchoed) {
  const PolicySpec iw = parse_policy("static-iw50@24");
  EXPECT_EQ(iw.kind, PolicyKind::kStaticIw);
  EXPECT_EQ(iw.static_iw, 50u);
  EXPECT_EQ(iw.prefix_length, 24);
  EXPECT_FALSE(iw.governed);

  const PolicySpec governed = parse_policy("adaptive-governed");
  EXPECT_EQ(governed.kind, PolicyKind::kAdaptive);
  EXPECT_TRUE(governed.governed);
  EXPECT_EQ(governed.prefix_length, 32);

  EXPECT_EQ(parse_policy("oracle@20").kind, PolicyKind::kOracle);
  EXPECT_EQ(parse_policy("default").kind, PolicyKind::kDefault);
}

TEST(PolicyParseTest, GarbageThrows) {
  for (const char* bad :
       {"", "bogus", "static-iw", "static-iw0", "static-iw1001",
        "static-iwXL", "adaptive@7", "adaptive@33", "adaptive@",
        "adaptive@-24", "default@24", "oracle@24@24", "ADAPTIVE",
        "static-iw50 ", "adaptive-governed-extra"}) {
    EXPECT_THROW(parse_policy(bad), std::invalid_argument) << bad;
  }
}

cdn::ExperimentConfig small_world() {
  cdn::ExperimentConfig config;
  auto pops = cdn::default_pop_specs();
  pops.resize(3);
  config.pop_specs = std::move(pops);
  config.topology.hosts_per_pop = 1;
  config.duration = Time::seconds(5);
  config.seed = 7;
  return config;
}

TEST(PolicyApplyTest, DefaultDisablesTheAgent) {
  auto config = small_world();
  policy::apply_policy(config, parse_policy("default"));
  EXPECT_FALSE(config.riptide_enabled);
  EXPECT_TRUE(config.extension_factories.empty());
}

TEST(PolicyApplyTest, AdaptiveSetsGranularityAndOptionallyTheGovernor) {
  auto config = small_world();
  policy::apply_policy(config, parse_policy("adaptive@20"));
  EXPECT_TRUE(config.riptide_enabled);
  EXPECT_EQ(config.riptide.granularity, core::Granularity::kPrefix);
  EXPECT_EQ(config.riptide.prefix_length, 20);
  EXPECT_EQ(config.riptide.governor.rollback_retrans_fraction, 0.0);

  auto governed = small_world();
  policy::apply_policy(governed, parse_policy("adaptive-governed"));
  EXPECT_EQ(governed.riptide.granularity, core::Granularity::kHost);
  // The recommended pack, all six values. Pinned so docs and
  // BENCH_policy.json stay honest.
  const auto& pack = governed.riptide.governor;
  EXPECT_EQ(pack.budget_segments, 300u);
  EXPECT_EQ(pack.hysteresis_segments, 2u);
  EXPECT_DOUBLE_EQ(pack.rollback_retrans_fraction, 0.05);
  EXPECT_EQ(pack.min_packets, 200u);
  EXPECT_EQ(pack.cooldown, Time::seconds(20));
  EXPECT_TRUE(pack.staged_response);
}

TEST(PolicyInstallTest, StaticInstallerProgramsEveryRemoteGroup) {
  auto config = small_world();
  policy::apply_policy(config, parse_policy("static-iw50@24"));
  EXPECT_FALSE(config.riptide_enabled);
  ASSERT_EQ(config.extension_factories.size(), 1u);

  cdn::Experiment experiment(std::move(config));
  ASSERT_EQ(experiment.extensions().size(), 1u);
  const auto installation =
      std::static_pointer_cast<policy::PolicyInstallation>(
          experiment.extensions().front());
  // 3 hosts x 2 remote /24 PoP groups each.
  EXPECT_EQ(installation->routes_installed, 6u);

  // Host 0 (PoP 0) reaches PoP 1's and PoP 2's hosts at initcwnd 50.
  const auto& host = experiment.topology().host(0, 0);
  EXPECT_EQ(host.routing_table().effective_initcwnd(
                experiment.topology().host(1, 0).address(), 10),
            50u);
  EXPECT_EQ(host.routing_table().effective_initcwnd(
                experiment.topology().host(2, 0).address(), 10),
            50u);
  // Its own address is untouched (group containing self is skipped).
  EXPECT_EQ(host.routing_table().effective_initcwnd(host.address(), 10),
            10u);
}

TEST(PolicyInstallTest, OracleWindowsTrackThePathBdp) {
  auto config = small_world();
  policy::apply_policy(config, parse_policy("oracle"));
  cdn::Experiment experiment(std::move(config));
  ASSERT_EQ(experiment.extensions().size(), 1u);

  const auto& topo = experiment.topology();
  const auto& host = topo.host(0, 0);
  const auto window = host.routing_table().effective_initcwnd(
      topo.host(1, 0).address(), 10);
  // BDP plus half the bottleneck queue, clamped to [10, 256]; on the
  // default 10 Gbps WAN with tens-of-ms RTTs the clamp saturates.
  EXPECT_GE(window, 10u);
  EXPECT_LE(window, 256u);
  const auto& tconfig = topo.config();
  const double rtt_s = topo.base_rtt(0, 1).to_seconds();
  const double safe = tconfig.wan_rate_bps * rtt_s / 8.0 / tcp::kMss +
                      tconfig.wan_queue_packets / 2.0;
  if (safe >= 256.0) {
    EXPECT_EQ(window, 256u);
  }
}

TEST(PolicyInstallTest, InstallersComposeWithTheFaultHarness) {
  // A policy installer and a fault harness share the one extension seam:
  // both results are retained, and the harness is built first although
  // the policy was applied first.
  auto config = small_world();
  policy::apply_policy(config, parse_policy("static-iw20"));
  faults::FaultHarness::install(config, faults::FaultPlan{});
  ASSERT_EQ(config.extension_factories.size(), 2u);

  cdn::Experiment experiment(std::move(config));
  const faults::FaultHarness* harness = faults::FaultHarness::from(experiment);
  ASSERT_NE(harness, nullptr);
  ASSERT_EQ(experiment.extensions().size(), 2u);
  EXPECT_EQ(experiment.extensions()[0].get(), harness);
  EXPECT_GT(std::static_pointer_cast<policy::PolicyInstallation>(
                experiment.extensions()[1])
                ->routes_installed,
            0u);
}

}  // namespace
}  // namespace riptide
