// Golden-determinism regression tests: a fixed-seed knobs-off experiment
// must keep producing bit-identical metrics as the hot path is rebuilt
// under it (segment pooling, callback dispatch, observation batching).
// Three layers of pinning:
//
//   1. a golden CRC-32 captured from the pre-refactor build — catches any
//      behavioral drift the refactors introduce, across PRs;
//   2. run-twice-in-process equality — catches state leaking between runs
//      (a shared pool or thread-local counter bleeding into behavior);
//   3. ParallelRunner --threads 1 vs 2 equality — catches cross-thread
//      interference now that per-run state includes thread-local slabs.
//
// Every metric field is serialized exactly (integers raw, doubles with
// %.17g round-trip precision) so the fingerprint has no tolerance to hide
// drift in.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "cdn/experiment.h"
#include "cdn/golden.h"
#include "chaos/spec.h"
#include "persist/crc32.h"
#include "runner/parallel_runner.h"

namespace riptide::cdn {
namespace {

using sim::Time;

// CRC-32 of serialize_metrics() for golden_config() on the pre-refactor
// (shared_ptr segment) build. The pooled build must reproduce it exactly.
constexpr std::uint32_t kGoldenCrc = 0x1B61F592;

std::uint32_t run_fingerprint(const ExperimentConfig& config) {
  Experiment exp(config);
  exp.run();
  return persist::crc32(serialize_metrics(exp));
}

TEST(GoldenDeterminismTest, MatchesPrePoolCapture) {
  const std::uint32_t crc = run_fingerprint(golden_config());
  EXPECT_EQ(crc, kGoldenCrc)
      << "metrics fingerprint changed: 0x" << std::hex << crc
      << " (expected 0x" << kGoldenCrc
      << "). A hot-path change altered simulation behavior; if the change "
         "is intentional, recapture the golden.";
}

TEST(GoldenDeterminismTest, RunTwiceIdentical) {
  EXPECT_EQ(run_fingerprint(golden_config()), run_fingerprint(golden_config()));
}

TEST(GoldenDeterminismTest, SeedChangesFingerprint) {
  // Sanity: the fingerprint actually depends on behavior, not just shape.
  EXPECT_NE(run_fingerprint(golden_config(42)),
            run_fingerprint(golden_config(43)));
}

// -- Hybrid-fidelity cross-traffic fingerprints --
//
// Fluid cross-traffic (flow_traffic) owns its own fingerprint, like the CC
// regimes: it must couple into the packet world and stay deterministic.

ExperimentConfig hybrid_config(double flows_per_second) {
  ExperimentConfig config = golden_config();
  config.flow_traffic.enabled = true;
  config.flow_traffic.model.flows_per_second = flows_per_second;
  return config;
}

TEST(HybridDeterminismTest, HybridLoadPerturbsProbes) {
  // Sanity that the fluid aggregate actually couples into the packet
  // world: turning it on must change the probe metrics.
  EXPECT_NE(run_fingerprint(golden_config()),
            run_fingerprint(hybrid_config(200.0)));
}

TEST(HybridDeterminismTest, RunTwiceIdentical) {
  EXPECT_EQ(run_fingerprint(hybrid_config(50.0)),
            run_fingerprint(hybrid_config(50.0)));
}

TEST(GoldenDeterminismTest, ParallelRunnerThreadCountInvariant) {
  std::vector<std::uint32_t> fingerprints;
  for (unsigned threads : {1u, 2u}) {
    runner::ParallelRunner runner(threads);
    std::vector<runner::RunSpec> specs;
    specs.push_back({"a", golden_config(42), nullptr});
    specs.push_back({"b", golden_config(43), nullptr});
    auto results = runner.run(std::move(specs));
    ASSERT_EQ(results.size(), 2u);
    std::uint32_t crc = 0;
    for (const auto& r : results) {
      crc = persist::crc32(serialize_metrics(*r.experiment), crc);
    }
    fingerprints.push_back(crc);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

// -- Knobs-on agent pins --
//
// The golden world runs with every hardening knob off, so it never
// reaches the budget, governor-ladder, retry, reconcile or staleness
// paths. Each world below drives some of them at world scale and pins
// one CRC over every agent's installed routes after every poll (read
// through the post-poll hook, with how the poll ended) plus every
// AgentStats counter at the end of the run.

// Every AgentStats field goes into the pin: a new counter must be added
// to serialize_agent_stats() below (and the pins recaptured).
static_assert(sizeof(core::AgentStats) == 30 * sizeof(std::uint64_t));

void serialize_agent_stats(const core::AgentStats& s, std::string& out) {
  const std::uint64_t fields[] = {
      s.polls,
      s.connections_observed,
      s.destinations_updated,
      s.routes_set,
      s.routes_expired,
      s.trend_resets,
      s.polls_failed,
      s.actuator_failures,
      s.actuator_retries,
      s.actuator_dead_letters,
      s.staleness_decays,
      s.staleness_withdrawals,
      s.crashes,
      s.restarts,
      s.routes_adopted,
      s.reconcile_repaired,
      s.reconcile_orphaned,
      s.reconcile_conflicting,
      s.governor_budget_scaledowns,
      s.governor_hysteresis_skips,
      s.governor_rollbacks,
      s.governor_routes_rolled_back,
      s.governor_cooldown_polls,
      s.governor_stage_scaledowns,
      s.governor_routes_stage_scaled,
      s.governor_stage_withdrawals,
      s.governor_routes_stage_withdrawn,
      s.governor_budget_sheds,
      s.governor_routes_budget_shed,
      s.governor_storm_escalations,
  };
  out += "A";
  for (const std::uint64_t field : fields) out += "," + std::to_string(field);
  out += "\n";
}

std::uint32_t agent_pin(const char* spec_text,
                        void (*tune)(ExperimentConfig&)) {
  ExperimentConfig config = chaos::ChaosSpec::parse(spec_text).to_config();
  tune(config);
  Experiment exp(config);
  std::uint32_t crc = 0;
  std::string poll;
  for (const auto& agent : exp.agents()) {
    agent->set_post_poll_hook(
        [&crc, &poll](core::RiptideAgent& a, const core::PollOutcome& o) {
          char line[96];
          std::snprintf(line, sizeof line, "P,%u,%" PRId64 ",%d%d%d\n",
                        a.host().address().value(),
                        a.host().simulator().now().ns(), o.completed ? 1 : 0,
                        o.reconciled ? 1 : 0, o.snapshot_ok ? 1 : 0);
          poll = line;
          for (const auto& [prefix, m] : a.installed_routes()) {
            std::snprintf(line, sizeof line, "R,%u/%d,%u,%u,%d\n",
                          prefix.address().value(), prefix.length(),
                          m.initcwnd_segments, m.initrwnd_segments,
                          static_cast<int>(m.cc));
            poll += line;
          }
          crc = persist::crc32(poll, crc);
        });
  }
  exp.run();
  std::string stats;
  for (const auto& agent : exp.agents()) {
    serialize_agent_stats(agent->stats(), stats);
  }
  return persist::crc32(stats, crc);
}

TEST(AgentPinTest, GovernorLadderReconcileAndHysteresis) {
  // Staged ladder (scale-down, selective withdraw, rollback, storm) under
  // a shallow-buffer world with a link outage, route drift for the
  // reconciler, and two loss bursts.
  const std::uint32_t crc = agent_pin(
      "pops=4\nhosts=2\nduration=60\nseed=3\nwan_loss=0.001\n"
      "policy=adaptive-governed\nhostile=shallow-buffer:queue=64\n"
      "faults=@8 down 0-1; @13 up 0-1; @15 route-drift -1 0.5 0.5; "
      "@20 loss 0-1 0.2 10; @40 loss 0-2 0.2 10\n",
      [](ExperimentConfig& c) {
        c.riptide.governor.rollback_retrans_fraction = 0.02;
        c.riptide.governor.min_packets = 50;
      });
  EXPECT_EQ(crc, 0xF1E02461u) << std::hex << "0x" << crc;
}

TEST(AgentPinTest, ShedNewestBudget) {
  // A flash crowd of fresh destinations against a tight shed-newest
  // budget: sheds, budget-shrink programs and the kBudget state record.
  const std::uint32_t crc = agent_pin(
      "pops=4\nhosts=2\nduration=40\nseed=7\nwan_loss=0.001\n"
      "policy=adaptive-governed\n"
      "hostile=flash-crowd:at=10,conns=8,bytes=100000,period=10\n"
      "faults=@5 loss 0-1 0.05 10\nbudget=20\n",
      [](ExperimentConfig&) {});
  EXPECT_EQ(crc, 0x214DA691u) << std::hex << "0x" << crc;
}

TEST(AgentPinTest, ProportionalBudgetAndLegacyRollbackStorm) {
  // Proportional budget scale-downs (decision loop and host-wide sweep)
  // and the legacy all-or-nothing rollback with storm backoff.
  const std::uint32_t crc = agent_pin(
      "pops=4\nhosts=2\nduration=60\nseed=7\nwan_loss=0.001\n"
      "policy=adaptive\nhostile=none\n"
      "faults=@10 loss 0-1 0.2 10; @35 loss 0-1 0.2 10\nbudget=20\n",
      [](ExperimentConfig& c) {
        c.riptide.governor.rollback_retrans_fraction = 0.02;
        c.riptide.governor.min_packets = 50;
        c.riptide.governor.cooldown = Time::seconds(5);
        c.riptide.governor.storm_backoff_factor = 2.0;
      });
  EXPECT_EQ(crc, 0x3F042BFFu) << std::hex << "0x" << crc;
}

TEST(AgentPinTest, ActuatorRetryPollFailureAndCrashRestore) {
  // Actuator retries and dead letters, failed polls, warm crash restored
  // from a checkpoint, and a cold reboot.
  const std::uint32_t crc = agent_pin(
      "pops=4\nhosts=2\nduration=60\nseed=5\nwan_loss=0.001\n"
      "policy=adaptive\nhostile=none\n"
      "faults=@5 actuator-fail 0.5 30; @8 poll-fail 0.3 10; "
      "@20 crash -1 5 warm; @40 crash 0 5 reboot-cold\n",
      [](ExperimentConfig&) {});
  EXPECT_EQ(crc, 0x284D70BAu) << std::hex << "0x" << crc;
}

TEST(AgentPinTest, StalenessGuardAndTtlExpiry) {
  // Sparse probes under long loss bursts: staleness withdrawals and TTL
  // expiry of idle destinations.
  const std::uint32_t crc = agent_pin(
      "pops=4\nhosts=2\nduration=90\nseed=9\nwan_loss=0.001\n"
      "policy=adaptive\nhostile=none\n"
      "faults=@10 loss 0-1 0.3 40; @10 loss 0-2 0.3 40\n",
      [](ExperimentConfig& c) {
        c.riptide.staleness_guard = true;
        c.riptide.ttl = Time::seconds(8);
        c.probe.interval = Time::seconds(20);
        c.probe.idle_close = Time::seconds(2);
        c.probe.extra_linger = Time::seconds(2);
      });
  EXPECT_EQ(crc, 0x261ECACEu) << std::hex << "0x" << crc;
}

}  // namespace
}  // namespace riptide::cdn
