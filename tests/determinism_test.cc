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
#include "cdn/pops.h"
#include "persist/crc32.h"
#include "runner/parallel_runner.h"

namespace riptide::cdn {
namespace {

using sim::Time;

// CRC-32 of serialize_metrics() for golden_config() on the pre-refactor
// (shared_ptr segment) build. The pooled build must reproduce it exactly.
constexpr std::uint32_t kGoldenCrc = 0x1B61F592;

// Compact 4-PoP closed-loop world, WAN loss *on* so the RNG-coupled paths
// (random loss -> SACK -> retransmission) are part of the fingerprint.
ExperimentConfig golden_config(std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.pop_specs = {{"lon", Continent::kEurope, {51.51, -0.13}},
                      {"fra", Continent::kEurope, {50.11, 8.68}},
                      {"nyc", Continent::kNorthAmerica, {40.71, -74.01}},
                      {"tyo", Continent::kAsia, {35.68, 139.69}}};
  config.topology.hosts_per_pop = 1;
  config.topology.wan_loss_probability = 2e-4;
  config.topology.seed = seed;
  config.riptide_enabled = true;
  config.riptide.update_interval = Time::seconds(1);
  config.riptide.c_max = 100;
  config.probe.interval = Time::seconds(5);
  config.probe.idle_close = Time::seconds(10);
  config.duration = Time::seconds(60);
  config.cwnd_sample_interval = Time::seconds(10);
  config.seed = seed;
  return config;
}

// Every observable output of a run, bit-exactly. Field order is part of
// the format; extend only by appending (and recapturing the golden).
std::string serialize_metrics(const Experiment& exp) {
  std::string out;
  out.reserve(1 << 16);
  char line[256];
  for (const auto& f : exp.metrics().flows()) {
    std::snprintf(line, sizeof line,
                  "F,%d,%d,%" PRIu64 ",%" PRId64 ",%" PRId64 ",%d,%.17g\n",
                  f.src_pop, f.dst_pop, f.object_bytes, f.started.ns(),
                  f.duration.ns(), f.fresh ? 1 : 0, f.base_rtt_ms);
    out += line;
  }
  for (const auto& s : exp.metrics().cwnd_samples()) {
    std::snprintf(line, sizeof line, "W,%d,%u,%" PRId64 "\n", s.pop,
                  s.cwnd_segments, s.at.ns());
    out += line;
  }
  for (const auto& agent : exp.agents()) {
    const auto& st = agent->stats();
    std::snprintf(line, sizeof line,
                  "A,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                  st.polls, st.connections_observed, st.routes_set,
                  st.routes_expired);
    out += line;
  }
  // Deliberately NOT fingerprinted: simulator().events_executed(). The
  // event count is harness bookkeeping, not simulation output — lazy
  // timers and the link completion ring change how many events run while
  // producing the same simulated behavior, and pinning it would veto
  // exactly the optimizations this suite exists to keep honest.
  std::snprintf(line, sizeof line, "S,%" PRId64 "\n",
                exp.simulator().now().ns());
  out += line;
  return out;
}

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

}  // namespace
}  // namespace riptide::cdn
