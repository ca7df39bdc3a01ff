// Chaos-search engine tests (src/chaos): spec codec round-trips, the
// invariant oracles against a deliberately broken governor, repro
// shrinking, campaign determinism, and the golden-fingerprint pin —
// plus the composed faults+policy scenario that puts a fault harness and
// a policy installer on the one extension seam together.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>

#include "cdn/experiment.h"
#include "cdn/pops.h"
#include "chaos/engine.h"
#include "chaos/oracle.h"
#include "chaos/shrink.h"
#include "chaos/spec.h"
#include "faults/harness.h"
#include "policy/policy.h"

namespace riptide::chaos {
namespace {

bool has_oracle(const std::vector<Violation>& violations,
                const std::string& oracle) {
  for (const auto& v : violations) {
    if (v.oracle == oracle) return true;
  }
  return false;
}

// The spec every oracle-detection test leans on: governed policy with a
// tight budget, real traffic pressure, and the budget-enforcement fault
// hook armed — a governor whose enforcement silently regressed.
ChaosSpec broken_governor_spec() {
  ChaosSpec spec;
  spec.pops = 4;
  spec.hosts = 2;
  spec.duration_s = 40.0;
  spec.seed = 7;
  spec.wan_loss = 1e-3;
  spec.policy.kind = policy::PolicyKind::kAdaptive;
  spec.policy.governed = true;
  spec.hostile.kind = cdn::HostileKind::kFlashCrowd;
  spec.hostile.crowd_at = sim::Time::seconds(10);
  spec.hostile.crowd_connections = 8;
  spec.hostile.crowd_bytes = 100'000;
  spec.hostile.crowd_period = sim::Time::seconds(10);
  spec.faults.loss_burst(sim::Time::seconds(5), 0, 1, 0.05,
                         sim::Time::seconds(10));
  spec.break_hook = "budget";
  spec.budget_override = 20;
  return spec;
}

// ------------------------------------------------------- spec codec

TEST(ChaosSpecTest, GeneratedSpecsRoundTrip) {
  for (std::size_t index = 0; index < 64; ++index) {
    const ChaosSpec spec = generate_spec(/*campaign_seed=*/3, index);
    const std::string text = spec.to_string();
    const ChaosSpec reparsed = ChaosSpec::parse(text);
    EXPECT_EQ(spec, reparsed) << "index " << index << "\n" << text;
    EXPECT_EQ(text, reparsed.to_string()) << "index " << index;
  }
}

TEST(ChaosSpecTest, HandWrittenSpecRoundTrips) {
  const ChaosSpec spec = broken_governor_spec();
  EXPECT_EQ(spec, ChaosSpec::parse(spec.to_string()));
}

TEST(ChaosSpecTest, GoldenSpecIsPinned) {
  // golden=1 canonicalizes every world-shape field: a half-edited golden
  // spec cannot silently drift off the determinism suite's shape.
  ChaosSpec edited = ChaosSpec::golden_spec();
  std::string text = edited.to_string();
  const auto at = text.find("pops=4");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, "pops=7");
  EXPECT_EQ(ChaosSpec::parse(text), ChaosSpec::golden_spec());
}

TEST(ChaosSpecTest, ErrorsNameTokenAndByteOffset) {
  const auto expect_throw = [](const std::string& text,
                               const std::string& needle) {
    try {
      (void)ChaosSpec::parse(text);
      FAIL() << "expected invalid_argument for: " << text;
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("at byte"), std::string::npos)
          << err.what();
      EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
          << err.what();
    }
  };
  expect_throw("pops=1\n", "integer out of range");
  expect_throw("bogus=3\n", "unknown key");
  expect_throw("pops=2\npops=3\n", "duplicate key");
  expect_throw("policy=warp-speed\n", "unknown policy");
  expect_throw("faults=@5 down 0-9\n", "fault link PoP out of range");
  expect_throw("pops=2\nhostile=incast:victim=5\n",
               "hostile victim PoP out of range");
  expect_throw("break=governor\n", "unknown break hook");
}

#ifdef RIPTIDE_CORPUS_DIR
TEST(ChaosSpecTest, FuzzCorpusParsesWithoutIncident) {
  // The committed fuzz seeds double as a regression corpus: every file
  // must parse (possibly to a rejection) without crashing, and every
  // accepted spec must survive the canonical round-trip.
  const std::filesystem::path dir =
      std::filesystem::path(RIPTIDE_CORPUS_DIR) / "chaos_spec";
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t files = 0;
  std::size_t accepted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    try {
      const ChaosSpec spec = ChaosSpec::parse(text);
      EXPECT_EQ(spec, ChaosSpec::parse(spec.to_string())) << entry.path();
      ++accepted;
    } catch (const std::invalid_argument&) {
      // Rejection seeds (e.g. bad_key.spec) exercise the error path.
    }
    ++files;
  }
  EXPECT_GT(files, 0u);
  EXPECT_GT(accepted, 0u);
}
#endif

// ------------------------------------------------------- oracles

TEST(ChaosOracleTest, GoldenSpecMatchesPinnedFingerprint) {
  const RunResult result = run_chaos_spec(ChaosSpec::golden_spec());
  EXPECT_TRUE(result.violations.empty())
      << result.violations.front().oracle << ": "
      << result.violations.front().detail;
  EXPECT_EQ(result.fingerprint, 0x1B61F592u);
}

TEST(ChaosOracleTest, BrokenGovernorBudgetIsCaught) {
  const RunResult broken = run_chaos_spec(broken_governor_spec());
  EXPECT_TRUE(has_oracle(broken.violations, kOracleBudget));

  // The same scenario with enforcement intact must be clean — the oracle
  // detects the regression, not the workload.
  ChaosSpec fixed = broken_governor_spec();
  fixed.break_hook.clear();
  EXPECT_TRUE(run_chaos_spec(fixed).violations.empty());
}

TEST(ChaosOracleTest, RunsAreDeterministic) {
  const ChaosSpec spec = broken_governor_spec();
  const RunResult a = run_chaos_spec(spec);
  const RunResult b = run_chaos_spec(spec);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.violations, b.violations);
}

// ------------------------------------------------------- shrinking

TEST(ChaosShrinkTest, MinimizesBrokenGovernorRepro) {
  const ChaosSpec failing = broken_governor_spec();
  const ShrinkResult minimized = shrink(failing, kOracleBudget);

  // Still fails the same oracle...
  ASSERT_TRUE(has_oracle(minimized.violations, kOracleBudget));
  // ...and every scenario ingredient irrelevant to the budget regression
  // has been cut: the loss burst, the flash crowd, the WAN loss, and
  // most of the duration.
  EXPECT_TRUE(minimized.spec.faults.empty());
  EXPECT_EQ(minimized.spec.hostile.kind, cdn::HostileKind::kNone);
  EXPECT_EQ(minimized.spec.wan_loss, 0.0);
  EXPECT_LE(minimized.spec.duration_s, failing.duration_s / 2);
  EXPECT_EQ(minimized.spec.hosts, 1);
  EXPECT_GT(minimized.runs, 0u);

  // The minimized spec replays to the same violations through the codec
  // (what a .min.spec repro file does).
  const ChaosSpec reparsed = ChaosSpec::parse(minimized.spec.to_string());
  const RunResult replay = run_chaos_spec(reparsed);
  EXPECT_EQ(replay.violations, minimized.violations);
}

// ------------------------------------------------------- campaigns

TEST(ChaosCampaignTest, CampaignIsDeterministic) {
  CampaignConfig config;
  config.seed = 11;
  config.runs = 32;
  const CampaignResult a = run_campaign(config);
  const CampaignResult b = run_campaign(config);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  EXPECT_EQ(a.golden_runs, b.golden_runs);
  EXPECT_EQ(a.shrink_runs, b.shrink_runs);
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].index, b.findings[i].index);
    EXPECT_EQ(a.findings[i].spec, b.findings[i].spec);
    EXPECT_EQ(a.findings[i].violations, b.findings[i].violations);
    EXPECT_EQ(a.findings[i].minimized, b.findings[i].minimized);
    EXPECT_EQ(a.findings[i].minimized_violations,
              b.findings[i].minimized_violations);
  }
}

TEST(ChaosCampaignTest, HealthyBuildRunsClean) {
  // No oracle may fire on the shipped code: a finding here is either a
  // real bug or an unsound oracle, and both block.
  CampaignConfig config;
  config.seed = 1;
  config.runs = 32;
  config.shrink = false;
  const CampaignResult result = run_campaign(config);
  EXPECT_EQ(result.runs, 32u);
  EXPECT_GT(result.golden_runs, 0u);
  for (const auto& finding : result.findings) {
    ADD_FAILURE() << "spec " << finding.index << " violated "
                  << finding.violations.front().oracle << ": "
                  << finding.violations.front().detail << "\n"
                  << finding.spec.to_string();
  }
}

// ------------------------------------------- composed scenarios (s3)

TEST(ComposedScenarioTest, HostileFaultsAndGovernedPolicyTogether) {
  // Governed adaptive policy + incast + a fault plan with link and agent
  // faults, all through the spec path: the composition must run clean
  // under the full oracle registry.
  ChaosSpec spec;
  spec.pops = 3;
  spec.hosts = 2;
  spec.duration_s = 30.0;
  spec.seed = 21;
  spec.policy.kind = policy::PolicyKind::kAdaptive;
  spec.policy.governed = true;
  spec.hostile.kind = cdn::HostileKind::kIncast;
  spec.hostile.victim_pop = 1;
  spec.hostile.fanin_connections = 4;
  spec.hostile.burst_bytes = 50'000;
  spec.faults.link_down(sim::Time::seconds(8), 0, 1);
  spec.faults.link_up(sim::Time::seconds(13), 0, 1);
  spec.faults.route_drift(sim::Time::seconds(15), -1, 0.5, 0.5);
  const RunResult result = run_chaos_spec(spec);
  EXPECT_TRUE(result.violations.empty())
      << result.violations.front().oracle << ": "
      << result.violations.front().detail;
}

TEST(ComposedScenarioTest, InstallerFactoriesAndFaultHarnessSlotTogether) {
  // FaultHarness::install and a policy installer share
  // extension_factories: both ride the same experiment without stepping
  // on each other, with the harness built first.
  cdn::ExperimentConfig config;
  config.pop_specs.assign(cdn::default_pop_specs().begin(),
                          cdn::default_pop_specs().begin() + 3);
  config.topology.hosts_per_pop = 1;
  config.duration = sim::Time::seconds(20);
  config.seed = 5;
  policy::apply_policy(config, policy::parse_policy("static-iw32@24"));
  faults::FaultHarness::install(
      config, faults::FaultPlan{}.link_flap(sim::Time::seconds(5), 0, 1,
                                            sim::Time::seconds(2), 4));
  cdn::Experiment exp(config);
  exp.run();

  auto* harness = faults::FaultHarness::from(exp);
  ASSERT_NE(harness, nullptr);
  ASSERT_EQ(exp.extensions().size(), 2u);
  EXPECT_EQ(exp.extensions()[0].get(), harness);
  const auto installation = std::static_pointer_cast<policy::PolicyInstallation>(
      exp.extensions()[1]);
  ASSERT_NE(installation, nullptr);
  EXPECT_GT(installation->routes_installed, 0u);
  EXPECT_GE(exp.simulator().now(), config.duration);
}

}  // namespace
}  // namespace riptide::chaos
