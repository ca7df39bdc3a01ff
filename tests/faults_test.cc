// Fault subsystem: plan parsing, link/actuator/poll injection, agent
// hardening (retry/backoff, dead letters, poll skips, staleness guard,
// crash/restart/adoption), and the end-to-end acceptance scenario of a
// flapping WAN link plus a 30%-failing actuator.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cdn/experiment.h"
#include "cdn/pops.h"
#include "cdn/topology.h"
#include "core/agent.h"
#include "core/route_programmer.h"
#include "core/socket_stats_source.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "faults/faulty.h"
#include "faults/harness.h"
#include "test_util.h"

namespace riptide {
namespace {

using faults::FaultKind;
using faults::FaultPlan;
using sim::Time;
using test::TwoHostNet;

core::RiptideConfig agent_config() {
  core::RiptideConfig config;
  config.alpha = 0.0;
  config.c_max = 100;
  config.c_min = 10;
  return config;
}

// Establishes a data-carrying connection a -> b and grows a's cwnd.
void push_data(TwoHostNet& net, std::uint64_t bytes) {
  net.b.listen(9900, [](tcp::TcpConnection& conn) {
    tcp::TcpConnection::Callbacks cbs;
    conn.set_callbacks(std::move(cbs));
  });
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 9900, std::move(cbs));
  net.sim.run_until(net.sim.now() + Time::milliseconds(100));
  conn.send(bytes);
  net.sim.run_until(net.sim.now() + Time::seconds(5));
}

// Snapshot source fully scripted by the test: exact control over the
// retransmit counters the staleness guard rates.
class ScriptedStatsSource : public core::SocketStatsSource {
 public:
  std::vector<host::SocketInfo> next;
  std::vector<host::SocketInfo> poll() override { return next; }
};

host::SocketInfo established(net::Ipv4Address remote, std::uint32_t cwnd,
                             std::uint64_t retrans, std::uint64_t sent) {
  host::SocketInfo info;
  info.tuple.local_addr = net::Ipv4Address(10, 0, 0, 1);
  info.tuple.local_port = 40000;
  info.tuple.remote_addr = remote;
  info.tuple.remote_port = 9900;
  info.state = tcp::TcpState::kEstablished;
  info.cwnd_segments = cwnd;
  info.bytes_acked = 100'000;
  info.retransmissions = retrans;
  info.segments_sent = sent;
  return info;
}

// ------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, ParsesFullSpec) {
  const auto plan = FaultPlan::parse(
      "@5 flap 0-1 2 6; @10 actuator-fail 0.3 30; @20 loss 2-3 0.05 10; "
      "@1 down 0-2; @2 up 0-2; @3 rate 0-1 0.25 5; @4 delay 0-1 50 5; "
      "@6 poll-fail 0.5 10; @7 poll-partial 0.25 10; @8 crash -1 10 warm");
  ASSERT_EQ(plan.size(), 10u);
  const auto& flap = plan.events()[0];
  EXPECT_EQ(flap.kind, FaultKind::kLinkFlap);
  EXPECT_EQ(flap.at, Time::seconds(5));
  EXPECT_EQ(flap.pop_a, 0u);
  EXPECT_EQ(flap.pop_b, 1u);
  EXPECT_EQ(flap.duration, Time::seconds(2));
  EXPECT_EQ(flap.count, 6);
  const auto& act = plan.events()[1];
  EXPECT_EQ(act.kind, FaultKind::kActuatorFail);
  EXPECT_DOUBLE_EQ(act.value, 0.3);
  EXPECT_EQ(act.duration, Time::seconds(30));
  const auto& crash = plan.events()[9];
  EXPECT_EQ(crash.kind, FaultKind::kAgentCrash);
  EXPECT_EQ(crash.host_index, -1);
  EXPECT_TRUE(crash.warm);
}

TEST(FaultPlanTest, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  ; ").empty());
}

TEST(FaultPlanTest, FractionalTimesAndWhitespace) {
  const auto plan = FaultPlan::parse("  @2.5   down   0-1  ");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events()[0].at, Time::from_seconds(2.5));
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("down 0-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@x down 0-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 explode 0-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 down 0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 down 1-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 down 0-1 extra"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 loss 0-1 1.5 10"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 loss 0-1 0.5 -1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 rate 0-1 0 10"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 flap 0-1 2 0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 crash 0 10 tepid"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@-1 down 0-1"), std::invalid_argument);
}

TEST(FaultPlanTest, FluentBuildersCompose) {
  FaultPlan plan;
  plan.link_down(Time::seconds(1), 0, 1)
      .loss_burst(Time::seconds(2), 0, 1, 0.1, Time::seconds(5))
      .agent_crash(Time::seconds(3), 2, Time::seconds(4), /*warm=*/false);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[2].host_index, 2);
  EXPECT_FALSE(plan.events()[2].warm);
}

// ------------------------------------------------------ link-level faults

TEST(LinkFaultTest, DownedLinkDropsAndCountsPackets) {
  TwoHostNet net(Time::milliseconds(10));
  push_data(net, 50'000);  // healthy transfer first
  const auto delivered_before = net.link_ab.stats().packets_delivered;

  net.link_ab.set_up(false);
  EXPECT_FALSE(net.link_ab.is_up());
  auto& conn = *net.a.find_connection(net.a.socket_stats().front().tuple);
  conn.send(50'000);
  net.sim.run_until(net.sim.now() + Time::seconds(3));
  EXPECT_GT(net.link_ab.stats().drops_link_down, 0u);
  EXPECT_EQ(net.link_ab.stats().packets_delivered, delivered_before);

  net.link_ab.set_up(true);
  net.sim.run_until(net.sim.now() + Time::seconds(30));
  // Retransmissions recover the stalled data once the link returns.
  EXPECT_GT(net.link_ab.stats().packets_delivered, delivered_before);
  EXPECT_GT(conn.stats().retransmissions, 0u);
}

TEST(LinkFaultTest, RuntimeLossBurstAppliesAndRestores) {
  TwoHostNet net(Time::milliseconds(10));
  push_data(net, 100'000);
  EXPECT_EQ(net.link_ab.stats().drops_random_loss, 0u);

  net.link_ab.set_loss_probability(0.4);
  auto& conn = *net.a.find_connection(net.a.socket_stats().front().tuple);
  conn.send(200'000);
  net.sim.run_until(net.sim.now() + Time::seconds(10));
  const auto burst_drops = net.link_ab.stats().drops_random_loss;
  EXPECT_GT(burst_drops, 0u);

  net.link_ab.set_loss_probability(0.0);
  conn.send(200'000);
  net.sim.run_until(net.sim.now() + Time::seconds(30));
  EXPECT_EQ(net.link_ab.stats().drops_random_loss, burst_drops);
}

TEST(LinkFaultTest, MutatorsValidate) {
  TwoHostNet net(Time::milliseconds(10));
  EXPECT_THROW(net.link_ab.set_loss_probability(1.5), std::invalid_argument);
  EXPECT_THROW(net.link_ab.set_loss_probability(-0.1), std::invalid_argument);
  EXPECT_THROW(net.link_ab.set_rate_bps(0.0), std::invalid_argument);

  // A link built without an Rng cannot have loss turned on.
  sim::Simulator sim;
  host::Host sink(sim, "sink", net::Ipv4Address(10, 9, 0, 1));
  net::Link rngless(sim, net::Link::Config{}, sink, nullptr);
  EXPECT_THROW(rngless.set_loss_probability(0.5), std::invalid_argument);
  rngless.set_loss_probability(0.0);  // zero stays allowed
}

// ------------------------------------------------------- fault decorators

TEST(FaultyProgrammerTest, FailNextThrowsThenRecovers) {
  TwoHostNet net(Time::milliseconds(10));
  faults::FaultyRouteProgrammer programmer(
      net.sim, std::make_unique<core::HostRouteProgrammer>(net.a),
      sim::Rng(1));
  const auto dst = net::Prefix::host(net.b.address());

  programmer.fail_next(1);
  EXPECT_THROW(programmer.set_initial_windows(dst, 50, 100),
               faults::ActuatorError);
  EXPECT_EQ(programmer.stats().failures_injected, 1u);

  programmer.set_initial_windows(dst, 50, 100);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            50u);
  EXPECT_EQ(programmer.stats().ops_attempted, 2u);
}

TEST(FaultyProgrammerTest, DelayDefersApplication) {
  TwoHostNet net(Time::milliseconds(10));
  faults::FaultyRouteProgrammer programmer(
      net.sim, std::make_unique<core::HostRouteProgrammer>(net.a),
      sim::Rng(1));
  programmer.set_delay(Time::milliseconds(500));
  programmer.set_initial_windows(net::Prefix::host(net.b.address()), 42, 0);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);  // not yet
  net.sim.run_until(net.sim.now() + Time::seconds(1));
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            42u);
  EXPECT_EQ(programmer.stats().ops_delayed, 1u);
}

TEST(FaultyStatsSourceTest, FailureAndPartialSnapshots) {
  TwoHostNet net(Time::milliseconds(10));
  push_data(net, 100'000);
  faults::FaultySocketStatsSource source(
      std::make_unique<core::HostSocketStatsSource>(net.a), sim::Rng(1));

  EXPECT_FALSE(source.poll().empty());

  source.fail_next(1);
  EXPECT_THROW(source.poll(), core::PollError);
  EXPECT_EQ(source.stats().failures_injected, 1u);

  source.set_partial_fraction(1.0);
  EXPECT_TRUE(source.poll().empty());
  EXPECT_GT(source.stats().entries_dropped, 0u);
}

// ----------------------------------------------- agent hardening: actuator

TEST(AgentRetryTest, RetriesWithBackoffUntilSuccess) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.actuator_backoff = Time::milliseconds(100);
  config.actuator_max_retries = 4;
  auto faulty = std::make_unique<faults::FaultyRouteProgrammer>(
      net.sim, std::make_unique<core::HostRouteProgrammer>(net.a),
      sim::Rng(1));
  auto* programmer = faulty.get();
  core::RiptideAgent agent(net.sim, net.a, config, std::move(faulty));
  push_data(net, 500'000);

  programmer->fail_next(2);
  agent.poll_once();
  EXPECT_EQ(agent.stats().actuator_failures, 1u);
  EXPECT_EQ(agent.stats().actuator_retries, 1u);
  EXPECT_EQ(agent.pending_actuator_ops(), 1u);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);

  // First retry (at +100 ms) hits the second injected failure; the second
  // retry (backoff doubled, +200 ms) succeeds and installs the route.
  net.sim.run_until(net.sim.now() + Time::seconds(1));
  EXPECT_EQ(agent.stats().actuator_failures, 2u);
  EXPECT_EQ(agent.stats().actuator_retries, 2u);
  EXPECT_EQ(agent.stats().actuator_dead_letters, 0u);
  EXPECT_EQ(agent.pending_actuator_ops(), 0u);
  EXPECT_EQ(agent.stats().routes_set, 1u);
  EXPECT_GT(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
}

TEST(AgentRetryTest, DeadLettersAfterMaxRetries) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.actuator_backoff = Time::milliseconds(50);
  config.actuator_max_retries = 2;
  auto faulty = std::make_unique<faults::FaultyRouteProgrammer>(
      net.sim, std::make_unique<core::HostRouteProgrammer>(net.a),
      sim::Rng(1));
  auto* programmer = faulty.get();
  core::RiptideAgent agent(net.sim, net.a, config, std::move(faulty));
  push_data(net, 500'000);

  programmer->set_failure_probability(1.0);
  agent.poll_once();
  net.sim.run_until(net.sim.now() + Time::seconds(5));
  EXPECT_EQ(agent.stats().actuator_dead_letters, 1u);
  EXPECT_EQ(agent.stats().actuator_retries, 2u);
  EXPECT_EQ(agent.stats().actuator_failures, 3u);  // initial + 2 retries
  EXPECT_EQ(agent.pending_actuator_ops(), 0u);
  EXPECT_EQ(agent.stats().routes_set, 0u);
}

TEST(AgentRetryTest, FreshDecisionSupersedesPendingRetry) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.actuator_backoff = Time::seconds(30);  // retry far in the future
  auto faulty = std::make_unique<faults::FaultyRouteProgrammer>(
      net.sim, std::make_unique<core::HostRouteProgrammer>(net.a),
      sim::Rng(1));
  auto* programmer = faulty.get();
  core::RiptideAgent agent(net.sim, net.a, config, std::move(faulty));
  push_data(net, 500'000);

  programmer->fail_next(1);
  agent.poll_once();
  EXPECT_EQ(agent.pending_actuator_ops(), 1u);

  // The next poll succeeds directly; the pending retry is cancelled, and
  // letting its (cancelled) timer slot pass changes nothing.
  agent.poll_once();
  EXPECT_EQ(agent.pending_actuator_ops(), 0u);
  const auto routes_set = agent.stats().routes_set;
  net.sim.run_until(net.sim.now() + Time::seconds(60));
  EXPECT_EQ(agent.stats().routes_set, routes_set);
}

// -------------------------------------------------- agent hardening: polls

TEST(AgentPollTest, FailedPollIsSkippedAndCounted) {
  TwoHostNet net(Time::milliseconds(20));
  auto faulty = std::make_unique<faults::FaultySocketStatsSource>(
      std::make_unique<core::HostSocketStatsSource>(net.a), sim::Rng(1));
  auto* source = faulty.get();
  core::RiptideAgent agent(net.sim, net.a, agent_config(), nullptr,
                           std::move(faulty));
  push_data(net, 500'000);

  source->fail_next(1);
  agent.poll_once();
  EXPECT_EQ(agent.stats().polls, 1u);
  EXPECT_EQ(agent.stats().polls_failed, 1u);
  EXPECT_EQ(agent.table().size(), 0u);

  agent.poll_once();
  EXPECT_EQ(agent.stats().polls_failed, 1u);
  EXPECT_EQ(agent.table().size(), 1u);
}

TEST(AgentPollTest, FailedPollDoesNotExpireRoutes) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.ttl = Time::seconds(30);
  auto faulty = std::make_unique<faults::FaultySocketStatsSource>(
      std::make_unique<core::HostSocketStatsSource>(net.a), sim::Rng(1));
  auto* source = faulty.get();
  core::RiptideAgent agent(net.sim, net.a, config, nullptr,
                           std::move(faulty));
  push_data(net, 500'000);
  agent.poll_once();
  ASSERT_EQ(agent.table().size(), 1u);

  // Way past the TTL, but the poll fails: "no information" must not mean
  // "no connections" — the learned route survives the observer glitch.
  net.sim.run_until(net.sim.now() + Time::seconds(60));
  source->fail_next(1);
  agent.poll_once();
  EXPECT_EQ(agent.table().size(), 1u);
  EXPECT_GT(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);

  // The next healthy poll applies the deferred expiry.
  for (const auto& info : net.a.socket_stats()) {
    net.a.find_connection(info.tuple)->abort();
  }
  agent.poll_once();
  EXPECT_EQ(agent.table().size(), 0u);
  EXPECT_EQ(agent.stats().routes_expired, 1u);
}

TEST(AgentPollTest, PartialSnapshotIsDataNotFailure) {
  TwoHostNet net(Time::milliseconds(20));
  auto faulty = std::make_unique<faults::FaultySocketStatsSource>(
      std::make_unique<core::HostSocketStatsSource>(net.a), sim::Rng(1));
  auto* source = faulty.get();
  core::RiptideAgent agent(net.sim, net.a, agent_config(), nullptr,
                           std::move(faulty));
  push_data(net, 500'000);

  source->set_partial_fraction(1.0);
  agent.poll_once();
  EXPECT_EQ(agent.stats().polls_failed, 0u);
  EXPECT_EQ(agent.stats().connections_observed, 0u);
  EXPECT_GT(source->stats().entries_dropped, 0u);
}

// ------------------------------------------------------- staleness guard

TEST(StalenessGuardTest, DecaysThenWithdrawsHurtingDestination) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.alpha = 1.0;  // history-only fold: decayed values stick
  config.staleness_guard = true;
  config.staleness_retrans_fraction = 0.2;
  config.staleness_min_segments = 10;
  config.staleness_decay = 0.5;
  auto scripted = std::make_unique<ScriptedStatsSource>();
  auto* source = scripted.get();
  auto recording = std::make_unique<core::HostRouteProgrammer>(net.a);
  core::RiptideAgent agent(net.sim, net.a, config, std::move(recording),
                           std::move(scripted));
  const auto remote = net.b.address();
  const auto key = net::Prefix::host(remote);

  // Healthy poll learns an 80-segment window.
  source->next = {established(remote, 80, /*retrans=*/0, /*sent=*/0)};
  agent.poll_once();
  ASSERT_NE(agent.learned(key), nullptr);
  EXPECT_DOUBLE_EQ(agent.learned(key)->final_window_segments, 80.0);

  // Three polls with a 30/130 retransmit delta each: 80 -> 40 -> 20 ->
  // withdrawn (20 * 0.5 = 10 <= c_min).
  source->next = {established(remote, 80, 30, 130)};
  agent.poll_once();
  EXPECT_DOUBLE_EQ(agent.learned(key)->final_window_segments, 40.0);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(remote, 10), 40u);

  source->next = {established(remote, 80, 60, 260)};
  agent.poll_once();
  EXPECT_DOUBLE_EQ(agent.learned(key)->final_window_segments, 20.0);

  source->next = {established(remote, 80, 90, 390)};
  agent.poll_once();
  EXPECT_EQ(agent.learned(key), nullptr);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(remote, 10), 10u);
  EXPECT_EQ(agent.stats().staleness_decays, 2u);
  EXPECT_EQ(agent.stats().staleness_withdrawals, 1u);
}

TEST(StalenessGuardTest, MinSegmentsGateAndQuietPathsUntouched) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.alpha = 1.0;
  config.staleness_guard = true;
  config.staleness_min_segments = 100;
  auto scripted = std::make_unique<ScriptedStatsSource>();
  auto* source = scripted.get();
  core::RiptideAgent agent(net.sim, net.a, config, nullptr,
                           std::move(scripted));
  const auto remote = net.b.address();

  source->next = {established(remote, 80, 0, 0)};
  agent.poll_once();
  // 100% retransmit rate, but only 50 segments sent: below the gate.
  source->next = {established(remote, 80, 50, 50)};
  agent.poll_once();
  EXPECT_EQ(agent.stats().staleness_decays, 0u);
  EXPECT_DOUBLE_EQ(
      agent.learned(net::Prefix::host(remote))->final_window_segments, 80.0);
}

TEST(StalenessGuardTest, TupleReuseDoesNotInheritCounters) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.alpha = 1.0;
  config.staleness_guard = true;
  config.staleness_min_segments = 10;
  auto scripted = std::make_unique<ScriptedStatsSource>();
  auto* source = scripted.get();
  core::RiptideAgent agent(net.sim, net.a, config, nullptr,
                           std::move(scripted));
  const auto remote = net.b.address();

  source->next = {established(remote, 80, 500, 1000)};
  agent.poll_once();  // first contact: the full counters are the delta
  // A NEW connection on the same tuple starts its counters over; smaller
  // cumulative values signal the reuse, so no huge bogus delta appears.
  source->next = {established(remote, 80, 0, 50)};
  agent.poll_once();
  EXPECT_EQ(agent.stats().staleness_decays,
            1u);  // only the first poll's 500/1000 tripped the guard
}

// -------------------------------------------------- crash/restart/adoption

TEST(AgentCrashTest, ColdRestartAdoptsLeftoverRoutesUnderTtl) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.ttl = Time::seconds(30);
  core::RiptideAgent agent(net.sim, net.a, config);
  agent.start();  // first incarnation; polls are driven manually below
  agent.stop();
  push_data(net, 500'000);
  agent.poll_once();
  const auto key = net::Prefix::host(net.b.address());
  const auto installed =
      net.a.routing_table().effective_initcwnd(net.b.address(), 10);
  ASSERT_GT(installed, 10u);

  agent.crash();
  EXPECT_EQ(agent.stats().crashes, 1u);
  EXPECT_FALSE(agent.running());
  EXPECT_EQ(agent.table().size(), 0u);  // in-memory state lost...
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            installed);  // ...but the programmed route is still live

  agent.start();
  agent.stop();  // adoption happens in start(); polling not needed here
  EXPECT_EQ(agent.stats().restarts, 1u);
  EXPECT_EQ(agent.stats().routes_adopted, 1u);
  ASSERT_NE(agent.learned(key), nullptr);
  EXPECT_DOUBLE_EQ(agent.learned(key)->final_window_segments,
                   static_cast<double>(installed));

  // The adopted route is back under TTL control: with the connection gone
  // and the TTL elapsed, it is withdrawn like any learned route.
  for (const auto& info : net.a.socket_stats()) {
    net.a.find_connection(info.tuple)->abort();
  }
  net.sim.run_until(net.sim.now() + Time::seconds(31));
  agent.poll_once();
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
}

TEST(AgentCrashTest, WarmRestartRestoresSnapshotWithoutAdoption) {
  TwoHostNet net(Time::milliseconds(20));
  core::RiptideAgent agent(net.sim, net.a, agent_config());
  push_data(net, 500'000);
  agent.poll_once();
  const auto key = net::Prefix::host(net.b.address());
  const double learned = agent.learned(key)->final_window_segments;
  const auto updates = agent.learned(key)->updates;

  const core::ObservedTable snapshot = agent.snapshot_table();
  agent.crash();
  agent.restore_table(snapshot);
  agent.start();
  agent.stop();
  EXPECT_EQ(agent.stats().routes_adopted, 0u);  // snapshot already covers it
  ASSERT_NE(agent.learned(key), nullptr);
  EXPECT_DOUBLE_EQ(agent.learned(key)->final_window_segments, learned);
  EXPECT_EQ(agent.learned(key)->updates, updates);  // history intact
}

TEST(AgentCrashTest, CrashDropsPendingRetries) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.actuator_backoff = Time::milliseconds(100);
  auto faulty = std::make_unique<faults::FaultyRouteProgrammer>(
      net.sim, std::make_unique<core::HostRouteProgrammer>(net.a),
      sim::Rng(1));
  auto* programmer = faulty.get();
  core::RiptideAgent agent(net.sim, net.a, config, std::move(faulty));
  push_data(net, 500'000);

  programmer->fail_next(1);
  agent.poll_once();
  ASSERT_EQ(agent.pending_actuator_ops(), 1u);
  agent.crash();
  EXPECT_EQ(agent.pending_actuator_ops(), 0u);
  const auto routes_set = agent.stats().routes_set;
  net.sim.run_until(net.sim.now() + Time::seconds(2));
  EXPECT_EQ(agent.stats().routes_set, routes_set);  // no zombie retry fired
}

// ---------------------------------------------------------- poll schedule

TEST(PollScheduleTest, FirstPollLandsAtExactlyOneInterval) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.update_interval = Time::seconds(1);
  core::RiptideAgent agent(net.sim, net.a, config);
  agent.start();
  net.sim.run_until(Time::seconds(1));
  EXPECT_EQ(agent.stats().polls, 1u);
}

// ----------------------------------------------------------- FaultInjector

cdn::TopologyConfig small_topology_config() {
  cdn::TopologyConfig config;
  config.hosts_per_pop = 1;
  return config;
}

std::vector<cdn::PopSpec> small_pops(std::size_t n) {
  auto specs = cdn::default_pop_specs();
  specs.resize(n);
  return specs;
}

TEST(FaultInjectorTest, FlapTogglesBothDirectionsOnSchedule) {
  sim::Simulator sim;
  cdn::Topology topo(sim, small_topology_config(), small_pops(3));
  FaultPlan plan;
  plan.link_flap(Time::seconds(1), 0, 1, Time::seconds(2), 3);
  faults::FaultInjector injector(sim, topo, plan);
  injector.arm();

  sim.run_until(Time::milliseconds(500));
  EXPECT_TRUE(topo.wan_link(0, 1).is_up());
  sim.run_until(Time::seconds(2));  // down leg at t=1
  EXPECT_FALSE(topo.wan_link(0, 1).is_up());
  EXPECT_FALSE(topo.wan_link(1, 0).is_up());
  sim.run_until(Time::seconds(4));  // up leg at t=3
  EXPECT_TRUE(topo.wan_link(0, 1).is_up());
  sim.run_until(Time::seconds(6));  // final down leg at t=5
  EXPECT_FALSE(topo.wan_link(0, 1).is_up());
  EXPECT_EQ(injector.stats().link_transitions, 3u);
  EXPECT_EQ(injector.stats().events_fired, 3u);
}

TEST(FaultInjectorTest, BurstsRestorePreviousParameters) {
  sim::Simulator sim;
  cdn::Topology topo(sim, small_topology_config(), small_pops(2));
  const double base_loss = topo.wan_link(0, 1).config().loss_probability;
  const double base_rate = topo.wan_link(0, 1).config().rate_bps;
  const Time base_delay = topo.wan_link(0, 1).config().propagation_delay;

  FaultPlan plan;
  plan.loss_burst(Time::seconds(1), 0, 1, 0.25, Time::seconds(2))
      .rate_factor(Time::seconds(1), 0, 1, 0.5, Time::seconds(2))
      .extra_delay(Time::seconds(1), 0, 1, 40.0, Time::seconds(2));
  faults::FaultInjector injector(sim, topo, plan);
  injector.arm();

  sim.run_until(Time::seconds(2));
  EXPECT_DOUBLE_EQ(topo.wan_link(0, 1).config().loss_probability, 0.25);
  EXPECT_DOUBLE_EQ(topo.wan_link(0, 1).config().rate_bps, base_rate * 0.5);
  EXPECT_EQ(topo.wan_link(0, 1).config().propagation_delay,
            base_delay + Time::milliseconds(40));

  sim.run_until(Time::seconds(4));
  EXPECT_DOUBLE_EQ(topo.wan_link(0, 1).config().loss_probability, base_loss);
  EXPECT_DOUBLE_EQ(topo.wan_link(0, 1).config().rate_bps, base_rate);
  EXPECT_EQ(topo.wan_link(0, 1).config().propagation_delay, base_delay);
  EXPECT_EQ(injector.stats().bursts_applied, 3u);
  EXPECT_EQ(injector.stats().bursts_restored, 3u);
}

TEST(FaultInjectorTest, ValidatesAgainstTopologyAndAgents) {
  sim::Simulator sim;
  cdn::Topology topo(sim, small_topology_config(), small_pops(2));
  {
    FaultPlan plan;
    plan.link_down(Time::seconds(1), 0, 5);  // PoP 5 does not exist
    faults::FaultInjector injector(sim, topo, plan);
    EXPECT_THROW(injector.arm(), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.agent_crash(Time::seconds(1), 3, Time::seconds(1), false);
    faults::FaultInjector injector(sim, topo, plan);  // no agents registered
    EXPECT_THROW(injector.arm(), std::invalid_argument);
  }
}

// -------------------------------------------- harness + acceptance scenario

cdn::ExperimentConfig harness_world(std::uint64_t seed) {
  cdn::ExperimentConfig config;
  config.pop_specs = small_pops(3);
  config.topology.hosts_per_pop = 1;
  config.riptide_enabled = true;
  config.riptide.update_interval = Time::seconds(1);
  config.probe.interval = Time::seconds(2);
  config.duration = Time::seconds(60);
  config.seed = seed;
  return config;
}

TEST(FaultHarnessTest, InstallWiresDecoratorsOntoEveryAgent) {
  auto config = harness_world(1);
  faults::FaultHarness::install(config, FaultPlan{});
  cdn::Experiment experiment(config);
  auto* harness = faults::FaultHarness::from(experiment);
  ASSERT_NE(harness, nullptr);
  ASSERT_EQ(harness->injector().hooks().size(), experiment.agents().size());
  for (const auto& hooks : harness->injector().hooks()) {
    EXPECT_NE(hooks.agent, nullptr);
    EXPECT_NE(hooks.actuator, nullptr);
    EXPECT_NE(hooks.stats_source, nullptr);
  }
}

TEST(FaultHarnessTest, ExperimentWithoutHarnessHasNoExtension) {
  auto config = harness_world(1);
  cdn::Experiment experiment(config);
  EXPECT_EQ(faults::FaultHarness::from(experiment), nullptr);

  // Other extensions (policy installers, say) are not a harness.
  config.extension_factories.push_back(
      [](cdn::Experiment&) -> std::shared_ptr<void> {
        return std::make_shared<int>(42);
      });
  cdn::Experiment with_other(config);
  ASSERT_EQ(with_other.extensions().size(), 1u);
  EXPECT_EQ(faults::FaultHarness::from(with_other), nullptr);
}

// The acceptance scenario: a flapping WAN link plus an actuator failing
// 30% of route programs. The run must complete (no crash, no unhandled
// exception), retry/backoff must have engaged, and the staleness guard
// must have decayed or withdrawn windows on the flapping path.
TEST(FaultHarnessTest, AcceptanceFlappingLinkWithFailingActuator) {
  auto config = harness_world(7);
  config.duration = Time::seconds(90);
  config.riptide.staleness_guard = true;
  // The flap outages are short; judge the retransmit rate aggressively so
  // the guard reacts within them.
  config.riptide.staleness_min_segments = 1;
  config.riptide.staleness_retrans_fraction = 0.05;
  faults::FaultHarness::install(
      config,
      FaultPlan::parse("@10 flap 0-1 5 8; @5 actuator-fail 0.3 70"));

  cdn::Experiment experiment(config);
  experiment.run();
  EXPECT_EQ(experiment.simulator().now(), Time::seconds(90));

  auto* harness = faults::FaultHarness::from(experiment);
  ASSERT_NE(harness, nullptr);
  EXPECT_EQ(harness->injector().stats().link_transitions, 8u);
  EXPECT_GT(harness->actuator_totals().failures_injected, 0u);

  core::AgentStats totals;
  for (const auto& agent : experiment.agents()) totals += agent->stats();
  EXPECT_GT(totals.actuator_failures, 0u);
  EXPECT_GT(totals.actuator_retries, 0u);  // retry/backoff engaged
  EXPECT_GT(totals.routes_set, 0u);        // and the agent still made progress
  EXPECT_GT(totals.staleness_decays + totals.staleness_withdrawals, 0u);
  EXPECT_GT(experiment.topology().drop_totals().link_down, 0u);
}

TEST(FaultHarnessTest, CrashPlanRestartsAgentsInsideExperiment) {
  auto config = harness_world(3);
  config.duration = Time::seconds(40);
  FaultPlan plan;
  plan.agent_crash(Time::seconds(10), -1, Time::seconds(5), /*warm=*/true);
  faults::FaultHarness::install(config, plan);
  cdn::Experiment experiment(config);
  experiment.run();

  for (const auto& agent : experiment.agents()) {
    EXPECT_EQ(agent->stats().crashes, 1u);
    EXPECT_EQ(agent->stats().restarts, 1u);
    EXPECT_TRUE(agent->running());
  }
  auto* harness = faults::FaultHarness::from(experiment);
  EXPECT_EQ(harness->injector().stats().crashes_injected,
            experiment.agents().size());
}

// ------------------------------------- durable-state faults (PR: persist)

TEST(FaultPlanTest, ParsesDurableStateEvents) {
  const auto plan = FaultPlan::parse(
      "@10 crash -1 5 reboot-warm; @11 crash 0 5 reboot-cold; "
      "@13 route-drift 0 0.5 0.25");
  ASSERT_EQ(plan.size(), 3u);
  const auto& warm = plan.events()[0];
  EXPECT_EQ(warm.kind, FaultKind::kAgentCrash);
  EXPECT_TRUE(warm.warm);
  EXPECT_TRUE(warm.flush_routes);
  const auto& cold = plan.events()[1];
  EXPECT_FALSE(cold.warm);
  EXPECT_TRUE(cold.flush_routes);
  EXPECT_EQ(cold.host_index, 0);
  const auto& drift = plan.events()[2];
  EXPECT_EQ(drift.kind, FaultKind::kRouteDrift);
  EXPECT_DOUBLE_EQ(drift.value, 0.5);
  EXPECT_DOUBLE_EQ(drift.value2, 0.25);
}

TEST(FaultPlanTest, RejectsMalformedDurableStateSpecs) {
  EXPECT_THROW(FaultPlan::parse("@5 crash -1 5 tepid"), std::invalid_argument);
  // A checkpoint is an in-memory table copy: no action corrupts it.
  EXPECT_THROW(FaultPlan::parse("@5 snap-corrupt -1 13"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 route-drift -1 0.5"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("@5 route-drift -1 1.5 0.2"),
               std::invalid_argument);
}

TEST(FaultInjectorTest, RouteDriftFractionsValidatedAtArmTime) {
  sim::Simulator sim;
  cdn::Topology topo(sim, small_topology_config(), small_pops(2));
  FaultPlan plan;
  // The builder is not the only producer of events; arm() re-validates.
  plan.route_drift(Time::seconds(1), -1, 0.5, 2.0);
  faults::FaultInjector injector(sim, topo, plan);
  EXPECT_THROW(injector.arm(), std::invalid_argument);
}

// Reboot-warm: the crash flushes learned routes (host reboot, not process
// death), and the restart restores the checkpointed table AND reprograms
// the routes before the first poll — the jump-start the paper is about.
TEST(FaultHarnessTest, RebootWarmRestoresRoutesFromCheckpoints) {
  auto config = harness_world(5);
  config.duration = Time::seconds(40);
  config.riptide.checkpoint_interval = Time::seconds(2);
  faults::FaultHarness::install(config,
                                FaultPlan::parse("@20 crash -1 5 reboot-warm"));
  cdn::Experiment experiment(config);
  experiment.run();

  auto* harness = faults::FaultHarness::from(experiment);
  ASSERT_NE(harness, nullptr);
  EXPECT_GT(harness->injector().stats().routes_flushed, 0u);
  const auto checkpoints = harness->checkpoint_totals();
  EXPECT_GT(checkpoints.checkpoints_written, 0u);
  EXPECT_EQ(checkpoints.restores, experiment.agents().size());
  EXPECT_GT(checkpoints.records_recovered, 0u);
  for (const auto& agent : experiment.agents()) {
    EXPECT_TRUE(agent->running());
    EXPECT_EQ(agent->stats().crashes, 1u);
    // The restored table is live, not just in memory: routes exist again.
    EXPECT_GT(agent->host().routing_table().learned_routes().size(), 0u);
  }
}

// Reboot-cold inside the same world: no checkpoint, so the flush leaves
// the restarted agent to re-learn from scratch (adoption finds nothing).
TEST(FaultHarnessTest, RebootColdRelearnsWithoutAdoption) {
  auto config = harness_world(5);
  config.duration = Time::seconds(40);
  faults::FaultHarness::install(config,
                                FaultPlan::parse("@20 crash -1 5 reboot-cold"));
  cdn::Experiment experiment(config);
  experiment.run();

  auto* harness = faults::FaultHarness::from(experiment);
  EXPECT_GT(harness->injector().stats().routes_flushed, 0u);
  EXPECT_EQ(harness->checkpoint_totals().checkpoints_written, 0u);
  for (const auto& agent : experiment.agents()) {
    EXPECT_TRUE(agent->running());
    EXPECT_EQ(agent->stats().routes_adopted, 0u);  // flush left nothing
  }
}

// The periodic copy skips its ticks while the agent is down rather than
// copying an empty table over the last good one: with a 2 s interval, a
// reboot from 21 s to 31 s leaves ticks 2..20 and 32..40 to each agent.
TEST(FaultHarnessTest, CheckpointTicksAreSkippedWhileTheAgentIsDown) {
  auto config = harness_world(5);
  config.duration = Time::seconds(40);
  config.riptide.checkpoint_interval = Time::seconds(2);
  faults::FaultHarness::install(
      config, FaultPlan::parse("@21 crash -1 10 reboot-warm"));
  cdn::Experiment experiment(config);
  experiment.run();

  auto* harness = faults::FaultHarness::from(experiment);
  const auto agents = experiment.agents().size();
  const auto checkpoints = harness->checkpoint_totals();
  EXPECT_EQ(checkpoints.checkpoints_written, 15u * agents);
  EXPECT_EQ(checkpoints.restores, agents);
  EXPECT_GT(checkpoints.records_recovered, 0u);
}

// A warm reboot before the first periodic copy has nothing to restore:
// the agents come up cold, with no routes reprogrammed at restart.
TEST(FaultHarnessTest, WarmRebootBeforeTheFirstCheckpointComesUpCold) {
  auto config = harness_world(5);
  // The run ends at the restart, before the restarted agents' first poll.
  config.duration = Time::seconds(6);
  config.riptide.checkpoint_interval = Time::seconds(10);
  faults::FaultHarness::install(config,
                                FaultPlan::parse("@5 crash -1 1 reboot-warm"));
  cdn::Experiment experiment(config);
  experiment.run();

  auto* harness = faults::FaultHarness::from(experiment);
  EXPECT_GT(harness->injector().stats().routes_flushed, 0u);
  EXPECT_EQ(harness->checkpoint_totals().checkpoints_written, 0u);
  EXPECT_EQ(harness->checkpoint_totals().restores, 0u);
  for (const auto& agent : experiment.agents()) {
    EXPECT_TRUE(agent->running());
    EXPECT_EQ(agent->table().size(), 0u);
    EXPECT_TRUE(agent->host().routing_table().learned_routes().empty());
  }
}

}  // namespace
}  // namespace riptide
