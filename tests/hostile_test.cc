// Hostile-scenario suite (src/cdn/hostile.h): the spec grammar, the
// synchronized incast / flash-crowd wave generators, and the headline
// robustness ordering — under a shallow bottleneck queue the governed
// adaptive policy beats a blind static IW50.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cdn/experiment.h"
#include "cdn/hostile.h"
#include "cdn/pops.h"
#include "policy/policy.h"
#include "sim/time.h"

namespace riptide {
namespace {

using cdn::HostileKind;
using cdn::parse_hostile_spec;
using sim::Time;

TEST(HostileParseTest, BareNamesSelectTheScenario) {
  EXPECT_EQ(parse_hostile_spec("none").kind, HostileKind::kNone);
  EXPECT_EQ(parse_hostile_spec("shallow-buffer").kind,
            HostileKind::kShallowBuffer);
  EXPECT_EQ(parse_hostile_spec("incast").kind, HostileKind::kIncast);
  EXPECT_EQ(parse_hostile_spec("flash-crowd").kind, HostileKind::kFlashCrowd);
  EXPECT_EQ(parse_hostile_spec("combined").kind, HostileKind::kCombined);
}

TEST(HostileParseTest, KeysLandInTheirFields) {
  const auto incast = parse_hostile_spec(
      "incast:victim=2,fanin=16,burst=1000000,start=7.5,interval=10");
  EXPECT_EQ(incast.kind, HostileKind::kIncast);
  EXPECT_EQ(incast.victim_pop, 2u);
  EXPECT_EQ(incast.fanin_connections, 16);
  EXPECT_EQ(incast.burst_bytes, 1'000'000u);
  EXPECT_EQ(incast.incast_start, Time::from_seconds(7.5));
  EXPECT_EQ(incast.incast_interval, Time::seconds(10));

  const auto crowd = parse_hostile_spec(
      "flash-crowd:at=15,conns=24,bytes=500000,repeats=3,period=20");
  EXPECT_EQ(crowd.crowd_at, Time::seconds(15));
  EXPECT_EQ(crowd.crowd_connections, 24);
  EXPECT_EQ(crowd.crowd_bytes, 500'000u);
  EXPECT_EQ(crowd.crowd_repeats, 3);
  EXPECT_EQ(crowd.crowd_period, Time::seconds(20));

  EXPECT_EQ(parse_hostile_spec("shallow-buffer:queue=24").queue_packets, 24u);
  // Keys are shared across scenarios: combined takes all of them.
  const auto combined =
      parse_hostile_spec("combined:queue=16,victim=1,conns=8");
  EXPECT_EQ(combined.queue_packets, 16u);
  EXPECT_EQ(combined.victim_pop, 1u);
  EXPECT_EQ(combined.crowd_connections, 8);
}

TEST(HostileParseTest, GarbageThrows) {
  for (const char* bad :
       {"", "meteor-strike", "incast:", "incast:victim", "incast:=3",
        "incast:victim=", "incast:victim=abc", "incast:victim=-1",
        "incast:victim=2000", "incast:fanin=0", "incast:interval=0",
        "incast:bogus=1", "shallow-buffer:queue=0",
        "flash-crowd:repeats=0", "flash-crowd:period=-5",
        "flash-crowd:at=nan", "combined:queue=9999999999"}) {
    EXPECT_THROW(parse_hostile_spec(bad), std::invalid_argument) << bad;
  }
}

cdn::ExperimentConfig small_world() {
  cdn::ExperimentConfig config;
  auto pops = cdn::default_pop_specs();
  pops.resize(3);
  config.pop_specs = std::move(pops);
  config.topology.hosts_per_pop = 1;
  config.riptide_enabled = false;
  config.duration = Time::seconds(12);
  config.seed = 21;
  return config;
}

TEST(HostileSourceTest, IncastFiresSynchronizedWavesFromEveryNonVictim) {
  auto config = small_world();
  config.hostile = parse_hostile_spec(
      "incast:victim=0,fanin=2,burst=50000,start=2,interval=4");
  cdn::Experiment experiment(std::move(config));
  experiment.run();

  // 2 non-victim hosts, waves at t = 2, 6, 10 s inside the 12 s run.
  ASSERT_EQ(experiment.incast_sources().size(), 2u);
  for (const auto& source : experiment.incast_sources()) {
    EXPECT_EQ(source->waves_fired(), 3u);
    EXPECT_EQ(source->connections_opened(), 6u);
    EXPECT_EQ(source->bytes_queued(), 6u * 50'000u);
  }
  EXPECT_TRUE(experiment.flash_crowd_sources().empty());
}

TEST(HostileSourceTest, FlashCrowdMobilizesEveryHost) {
  auto config = small_world();
  config.hostile =
      parse_hostile_spec("flash-crowd:at=2,conns=4,bytes=20000,repeats=2,period=4");
  cdn::Experiment experiment(std::move(config));
  experiment.run();

  // Every host is a source; waves at t = 2 and 6 s.
  ASSERT_EQ(experiment.flash_crowd_sources().size(), 3u);
  for (const auto& source : experiment.flash_crowd_sources()) {
    EXPECT_EQ(source->waves_fired(), 2u);
    EXPECT_EQ(source->connections_opened(), 8u);
    EXPECT_EQ(source->bytes_queued(), 8u * 20'000u);
  }
  EXPECT_TRUE(experiment.incast_sources().empty());

  // The crowd's transfers land in the flow metrics like any other flow.
  EXPECT_GT(experiment.metrics().flows().size(), 0u);
}

TEST(HostileSourceTest, CombinedRunsBothGenerators) {
  auto config = small_world();
  config.hostile = parse_hostile_spec(
      "combined:victim=1,fanin=1,burst=10000,start=3,interval=100,"
      "at=5,conns=2,bytes=10000,repeats=1,period=100");
  cdn::Experiment experiment(std::move(config));
  experiment.run();
  ASSERT_EQ(experiment.incast_sources().size(), 2u);
  ASSERT_EQ(experiment.flash_crowd_sources().size(), 3u);
  for (const auto& source : experiment.incast_sources()) {
    EXPECT_EQ(source->waves_fired(), 1u);
  }
  for (const auto& source : experiment.flash_crowd_sources()) {
    EXPECT_EQ(source->waves_fired(), 1u);
  }
  // ...and the shallow-buffer half: the experiment shrank its WAN queues
  // from the spec before building the topology.
  const std::size_t queue = experiment.config().hostile.queue_packets;
  EXPECT_EQ(experiment.config().topology.wan_queue_packets, queue);
  EXPECT_EQ(experiment.topology().wan_link(0, 1).config().queue_packets,
            queue);
}

TEST(HostileSourceTest, VictimPopMustExist) {
  auto config = small_world();
  config.hostile = parse_hostile_spec("incast:victim=7");
  EXPECT_THROW(cdn::Experiment{std::move(config)}, std::invalid_argument);
}

// The robustness headline, end to end: on a constrained WAN with a
// shallow bottleneck queue, static IW50 melts the queue (retransmission
// storm) while the governed adaptive agent backs itself off. Mirrors the
// bench_policy_zoo shallow-buffer column at test scale.
cdn::ExperimentConfig hostile_world(const char* policy_name) {
  cdn::ExperimentConfig config;
  auto pops = cdn::default_pop_specs();
  pops.resize(4);
  config.pop_specs = std::move(pops);
  config.topology.hosts_per_pop = 2;
  // 20x LAN/WAN rate mismatch: without it an IW flight never queues and
  // no policy can overflow anything (see bench_policy_zoo.cc).
  config.topology.wan_rate_bps = 500e6;
  config.riptide.update_interval = Time::seconds(2);
  config.probe.interval = Time::seconds(2);
  config.organic_source_pops = {0};
  config.duration = Time::seconds(60);
  config.seed = 11;

  config.hostile = parse_hostile_spec("shallow-buffer:queue=24");
  policy::apply_policy(config, policy::parse_policy(policy_name));
  return config;
}

TEST(HostileEndToEndTest, GovernedAdaptiveOutlastsStaticIw50OnShallowQueues) {
  cdn::Experiment iw50(hostile_world("static-iw50"));
  iw50.run();
  cdn::Experiment governed(hostile_world("adaptive-governed"));
  governed.run();

  const auto iw50_retrans = iw50.topology().total_retransmissions();
  const auto governed_retrans = governed.topology().total_retransmissions();
  // The margin in BENCH_policy.json is ~30x; demand 2x so seeds and
  // timer jitter cannot flake the test.
  EXPECT_GT(iw50_retrans, 2 * governed_retrans)
      << "iw50=" << iw50_retrans << " governed=" << governed_retrans;

  // And the governor actually intervened rather than the traffic just
  // being gentler: some staged action or rollback fired.
  std::uint64_t actions = 0;
  for (const auto& agent : governed.agents()) {
    const auto& stats = agent->stats();
    actions += stats.governor_rollbacks + stats.governor_stage_scaledowns +
               stats.governor_stage_withdrawals;
  }
  EXPECT_GT(actions, 0u);
}

}  // namespace
}  // namespace riptide
