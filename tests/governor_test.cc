// Safety governor and route reconciliation: the pure decision logic
// (budget scaling, hysteresis, rollback gating, cooldown state machine),
// the agent-level behaviors they drive, reconciliation of externally
// deleted/mangled/orphaned routes, and the end-to-end emergency-rollback
// scenario inside a full experiment.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>

#include "cdn/experiment.h"
#include "cdn/pops.h"
#include "core/agent.h"
#include "core/governor.h"
#include "core/observed_table.h"
#include "trace/event.h"
#include "trace/sink.h"
#include "faults/fault_plan.h"
#include "faults/harness.h"
#include "host/routing_table.h"
#include "net/ipv4.h"
#include "sim/time.h"
#include "test_util.h"

namespace riptide {
namespace {

using core::GovernorConfig;
using core::SafetyGovernor;
using sim::Time;
using test::TwoHostNet;

// ---------------------------------------------------- pure decision logic

TEST(SafetyGovernorTest, ZeroKnobsAreTheIdentityDecisions) {
  SafetyGovernor governor;  // every knob at its default
  EXPECT_FALSE(governor.rollback_enabled());
  EXPECT_DOUBLE_EQ(governor.budget_scale(1e9), 1.0);
  EXPECT_FALSE(governor.within_hysteresis(40, 40));  // equal is reprogrammed
  EXPECT_FALSE(governor.should_rollback(1000, 1000, Time::zero()));
}

TEST(SafetyGovernorTest, BudgetScaleCapsOnlyWhenOverCommitted) {
  SafetyGovernor governor(GovernorConfig{.budget_segments = 100});
  EXPECT_DOUBLE_EQ(governor.budget_scale(50.0), 1.0);
  EXPECT_DOUBLE_EQ(governor.budget_scale(100.0), 1.0);
  EXPECT_DOUBLE_EQ(governor.budget_scale(200.0), 0.5);
  EXPECT_DOUBLE_EQ(governor.budget_scale(400.0), 0.25);
}

TEST(SafetyGovernorTest, HysteresisBandsSmallDeltas) {
  SafetyGovernor governor(GovernorConfig{.hysteresis_segments = 3});
  EXPECT_TRUE(governor.within_hysteresis(40, 40));
  EXPECT_TRUE(governor.within_hysteresis(40, 43));
  EXPECT_TRUE(governor.within_hysteresis(40, 37));
  EXPECT_FALSE(governor.within_hysteresis(40, 44));
  EXPECT_FALSE(governor.within_hysteresis(40, 36));
}

TEST(SafetyGovernorTest, RollbackRequiresVolumeAndRate) {
  SafetyGovernor governor(GovernorConfig{.rollback_retrans_fraction = 0.1,
                                         .min_packets = 100});
  EXPECT_TRUE(governor.rollback_enabled());
  // Too few packets to judge, whatever the rate.
  EXPECT_FALSE(governor.should_rollback(50, 50, Time::zero()));
  // Enough volume, rate under threshold.
  EXPECT_FALSE(governor.should_rollback(9, 100, Time::zero()));
  // Enough volume, rate at/over threshold.
  EXPECT_TRUE(governor.should_rollback(10, 100, Time::zero()));
}

TEST(SafetyGovernorTest, CooldownSuppressesRollbackUntilItElapses) {
  SafetyGovernor governor(GovernorConfig{.rollback_retrans_fraction = 0.1,
                                         .min_packets = 100,
                                         .cooldown = Time::seconds(10)});
  ASSERT_TRUE(governor.should_rollback(50, 100, Time::seconds(1)));
  governor.arm_cooldown(Time::seconds(1));
  EXPECT_TRUE(governor.in_cooldown(Time::seconds(5)));
  EXPECT_FALSE(governor.should_rollback(50, 100, Time::seconds(5)));
  // Deadline passed: the kCooldown -> kNormal transition happens on the
  // in_cooldown() probe and rollback is live again.
  EXPECT_FALSE(governor.in_cooldown(Time::seconds(11) + Time::nanoseconds(1)));
  EXPECT_TRUE(governor.should_rollback(50, 100, Time::seconds(12)));
}

// ----------------------------------------------------- agent-level knobs

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

TEST(AgentGovernorTest, BudgetScalesTheInstalledWindow) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  core::RiptideAgent plain(net.sim, net.a, config);
  push_data(net, 500'000);
  plain.poll_once();
  const auto unscaled =
      net.a.routing_table().effective_initcwnd(net.b.address(), 10);
  ASSERT_GT(unscaled, 10u);

  // Same observations, but the host-wide budget only admits half.
  config.governor.budget_segments = unscaled / 2;
  core::RiptideAgent capped(net.sim, net.a, config);
  capped.poll_once();
  const auto scaled =
      net.a.routing_table().effective_initcwnd(net.b.address(), 10);
  EXPECT_LE(scaled, config.governor.budget_segments + 1);
  EXPECT_LT(scaled, unscaled);
  EXPECT_EQ(capped.stats().governor_budget_scaledowns, 1u);
  // The learned table keeps the unscaled value: the budget caps what is
  // installed, not what is known.
  const auto key = net::Prefix::host(net.b.address());
  ASSERT_NE(capped.learned(key), nullptr);
  EXPECT_DOUBLE_EQ(capped.learned(key)->final_window_segments,
                   static_cast<double>(unscaled));
}

TEST(AgentGovernorTest, BudgetShrinksRoutesInstalledInEarlierPolls) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.governor.budget_segments = 20;
  // Wide hysteresis: shrinking to budget is a safety action, not churn,
  // so the band must not be allowed to block it.
  config.governor.hysteresis_segments = 50;
  core::RiptideAgent agent(net.sim, net.a, config);

  // A previous generation learned an over-budget window; the warm restart
  // reinstalls it verbatim.
  core::ObservedTable snapshot;
  snapshot.store_final(net::Prefix::host(net.b.address()), 80.0, Time::zero());
  agent.restore_table(std::move(snapshot), /*reinstall_routes=*/true);
  ASSERT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            80u);

  // No fresh samples for the destination: the decisions loop never visits
  // it, so only the host-wide sweep can bring the install under budget.
  agent.poll_once();
  EXPECT_EQ(agent.stats().governor_budget_scaledowns, 1u);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            20u);
  // The learned value stays unscaled: the budget caps what is installed,
  // not what is known.
  const auto* state = agent.learned(net::Prefix::host(net.b.address()));
  ASSERT_NE(state, nullptr);
  EXPECT_DOUBLE_EQ(state->final_window_segments, 80.0);
}

TEST(AgentGovernorTest, HysteresisSkipsChurnButNotTheFirstProgram) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.governor.hysteresis_segments = 50;  // wide: any repeat is churn
  core::RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 500'000);
  agent.poll_once();
  EXPECT_EQ(agent.stats().governor_hysteresis_skips, 0u);
  const auto routes_set = agent.stats().routes_set;
  ASSERT_GT(routes_set, 0u);
  agent.poll_once();
  EXPECT_EQ(agent.stats().governor_hysteresis_skips, 1u);
  EXPECT_EQ(agent.stats().routes_set, routes_set);  // no reprogram churn
}

// ---------------------------------------------------- route reconciliation

TEST(AgentReconcileTest, RepairsExternallyDeletedRoute) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.reconcile_routes = true;
  core::RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 500'000);
  agent.poll_once();
  const auto key = net::Prefix::host(net.b.address());
  const auto installed =
      net.a.routing_table().effective_initcwnd(net.b.address(), 10);
  ASSERT_GT(installed, 10u);

  // Outside actor: `ip route del`.
  ASSERT_TRUE(net.a.routing_table().remove(key));
  agent.poll_once();
  EXPECT_EQ(agent.stats().reconcile_repaired, 1u);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            installed);
}

TEST(AgentReconcileTest, RepairsExternallyMangledRoute) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.reconcile_routes = true;
  core::RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 500'000);
  agent.poll_once();
  const auto key = net::Prefix::host(net.b.address());
  const auto* live = net.a.routing_table().find_route(key);
  ASSERT_NE(live, nullptr);
  const auto wanted = live->metrics;
  ASSERT_GT(wanted.initcwnd_segments, 1u);

  // Outside actor: `ip route replace` with a fat-fingered window.
  net.a.routing_table().add_or_replace(
      key, host::RouteMetrics{1, wanted.initrwnd_segments});
  agent.poll_once();
  EXPECT_EQ(agent.stats().reconcile_conflicting, 1u);
  EXPECT_GE(agent.stats().reconcile_repaired, 1u);
  const auto* repaired = net.a.routing_table().find_route(key);
  ASSERT_NE(repaired, nullptr);
  EXPECT_EQ(repaired->metrics, wanted);
}

TEST(AgentReconcileTest, WithdrawsLearnedLookingOrphan) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.reconcile_routes = true;
  core::RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 500'000);
  agent.poll_once();
  const auto* owned =
      net.a.routing_table().find_route(net::Prefix::host(net.b.address()));
  ASSERT_NE(owned, nullptr);

  // A leftover from some dead process: learned-looking, owned by nobody.
  const auto orphan = net::Prefix::host(net::Ipv4Address(10, 0, 0, 99));
  net.a.routing_table().add_or_replace(orphan, host::RouteMetrics{55, 0});
  agent.poll_once();
  EXPECT_EQ(agent.stats().reconcile_orphaned, 1u);
  EXPECT_EQ(net.a.routing_table().find_route(orphan), nullptr);
}

TEST(AgentReconcileTest, KnobOffLeavesDriftAlone) {
  TwoHostNet net(Time::milliseconds(20));
  core::RiptideAgent agent(net.sim, net.a, agent_config());
  push_data(net, 500'000);
  agent.poll_once();
  const auto* owned =
      net.a.routing_table().find_route(net::Prefix::host(net.b.address()));
  ASSERT_NE(owned, nullptr);
  const auto orphan = net::Prefix::host(net::Ipv4Address(10, 0, 0, 99));
  net.a.routing_table().add_or_replace(orphan, host::RouteMetrics{55, 0});
  agent.poll_once();
  EXPECT_EQ(agent.stats().reconcile_orphaned, 0u);
  EXPECT_NE(net.a.routing_table().find_route(orphan), nullptr);
}

TEST(AgentGovernorTest, RejectsOutOfRangeRollbackFraction) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.governor.rollback_retrans_fraction = 1.5;
  EXPECT_THROW(core::RiptideAgent(net.sim, net.a, config),
               std::invalid_argument);
}

// ------------------------------------------- staged ladder (pure logic)

GovernorConfig staged_config() {
  GovernorConfig config;
  config.rollback_retrans_fraction = 0.1;
  config.min_packets = 100;
  config.cooldown = Time::seconds(10);
  config.staged_response = true;
  return config;
}

TEST(SafetyGovernorTest, ZeroPacketWindowIsNeverRollbackEvidence) {
  // Regression: with min_packets forced to 0, a zero-packet window used to
  // evaluate 0 >= fraction * 0 and fire a rollback out of pure silence.
  SafetyGovernor governor(GovernorConfig{.rollback_retrans_fraction = 0.1,
                                         .min_packets = 0});
  EXPECT_FALSE(governor.should_rollback(0, 0, Time::zero()));
  EXPECT_FALSE(governor.should_rollback(5, 0, Time::zero()));
  // With packets present the configured threshold applies as usual.
  EXPECT_TRUE(governor.should_rollback(1, 10, Time::zero()));
}

TEST(SafetyGovernorTest, CooldownExpiresExactlyAtTheDeadline) {
  // The deadline is now + cooldown; the boundary poll is already out of
  // cooldown (>= , not >) — an off-by-one here silently stretches every
  // cooldown by one poll interval.
  SafetyGovernor governor(GovernorConfig{.rollback_retrans_fraction = 0.1,
                                         .min_packets = 100,
                                         .cooldown = Time::seconds(10)});
  governor.arm_cooldown(Time::seconds(1));
  EXPECT_TRUE(
      governor.in_cooldown(Time::seconds(11) - Time::nanoseconds(1)));
  EXPECT_FALSE(governor.in_cooldown(Time::seconds(11)));
  EXPECT_EQ(governor.state(), core::GovernorState::kNormal);
}

TEST(SafetyGovernorTest, StormBackoffOffByDefaultKeepsEveryCooldownFlat) {
  // A rollback re-tripped the moment the previous cooldown ended (a
  // rollback storm) still cools down for exactly `cooldown`.
  SafetyGovernor governor(staged_config());  // cooldown 10 s
  governor.arm_cooldown(Time::seconds(0));
  EXPECT_FALSE(governor.in_cooldown(Time::seconds(10)));
  governor.arm_cooldown(Time::seconds(11));
  EXPECT_TRUE(governor.in_cooldown(Time::seconds(21) - Time::nanoseconds(1)));
  EXPECT_FALSE(governor.in_cooldown(Time::seconds(21)));
}

TEST(SafetyGovernorTest, StagedLadderEscalatesOneStagePerBadPoll) {
  SafetyGovernor governor(staged_config());
  EXPECT_TRUE(governor.staged());
  EXPECT_EQ(governor.assess(50, 100, Time::seconds(1)),
            core::StagedAction::kScaleDown);
  EXPECT_EQ(governor.state(), core::GovernorState::kScaleDown);
  EXPECT_EQ(governor.assess(50, 100, Time::seconds(2)),
            core::StagedAction::kSelectiveWithdraw);
  EXPECT_EQ(governor.state(), core::GovernorState::kSelectiveWithdraw);
  // Stage 3 returns the rollback action; the kCooldown transition belongs
  // to arm_cooldown, which the agent calls from its rollback sweep.
  EXPECT_EQ(governor.assess(50, 100, Time::seconds(3)),
            core::StagedAction::kRollback);
  EXPECT_EQ(governor.state(), core::GovernorState::kSelectiveWithdraw);
  governor.arm_cooldown(Time::seconds(3));
  EXPECT_EQ(governor.state(), core::GovernorState::kCooldown);
  // While cooling down the ladder is parked.
  EXPECT_EQ(governor.assess(50, 100, Time::seconds(5)),
            core::StagedAction::kNone);
}

TEST(SafetyGovernorTest, StagedLadderDropsStraightBackToNormalWhenHealthy) {
  SafetyGovernor governor(staged_config());
  governor.assess(50, 100, Time::seconds(1));
  governor.assess(50, 100, Time::seconds(2));
  ASSERT_EQ(governor.state(), core::GovernorState::kSelectiveWithdraw);
  // One healthy poll: no half-steps back down the ladder.
  EXPECT_EQ(governor.assess(0, 1000, Time::seconds(3)),
            core::StagedAction::kNone);
  EXPECT_EQ(governor.state(), core::GovernorState::kNormal);
}

TEST(SafetyGovernorTest, StagedLadderHoldsStateOnAnEmptyWindow) {
  SafetyGovernor governor(staged_config());
  governor.assess(50, 100, Time::seconds(1));
  ASSERT_EQ(governor.state(), core::GovernorState::kScaleDown);
  // No traffic is no evidence — neither escalation nor recovery.
  EXPECT_EQ(governor.assess(0, 0, Time::seconds(2)),
            core::StagedAction::kNone);
  EXPECT_EQ(governor.state(), core::GovernorState::kScaleDown);
  // Below min_packets is equally inconclusive.
  EXPECT_EQ(governor.assess(10, 50, Time::seconds(3)),
            core::StagedAction::kNone);
  EXPECT_EQ(governor.state(), core::GovernorState::kScaleDown);
}

// --------------------------------------------- staged ladder (agent-level)

// Drops every `period`-th data packet a -> b, forcing retransmissions on a.
void drop_periodically(TwoHostNet& net, int period) {
  auto counter = std::make_shared<int>(0);
  net.filter_ab.set_drop_predicate([counter,
                                    period](const net::Packet& packet) {
    const auto* seg = dynamic_cast<const tcp::Segment*>(packet.payload.get());
    if (seg == nullptr || seg->payload_bytes == 0) return false;
    return (++*counter % period) == 0;
  });
}

// Fresh connection a -> b on a shared listener; pushes bytes and runs.
struct TrafficRig {
  explicit TrafficRig(TwoHostNet& net) : net_(net) {
    net_.b.listen(9910, [](tcp::TcpConnection& conn) {
      tcp::TcpConnection::Callbacks cbs;
      conn.set_callbacks(std::move(cbs));
    });
  }
  void push(std::uint64_t bytes) {
    tcp::TcpConnection::Callbacks cbs;
    auto& conn = net_.a.connect(net_.b.address(), 9910, std::move(cbs));
    net_.sim.run_until(net_.sim.now() + Time::milliseconds(200));
    conn.send(bytes);
    net_.sim.run_until(net_.sim.now() + Time::seconds(5));
  }
  TwoHostNet& net_;
};

core::RiptideConfig staged_agent_config() {
  auto config = agent_config();
  config.governor.rollback_retrans_fraction = 0.02;
  config.governor.min_packets = 10;
  config.governor.cooldown = Time::seconds(10);
  config.governor.staged_response = true;
  return config;
}

TEST(AgentStagedTest, LadderScalesThenWithdrawsThenRollsBack) {
  TwoHostNet net(Time::milliseconds(20));
  core::RiptideAgent agent(net.sim, net.a, staged_agent_config());
  TrafficRig rig(net);

  rig.push(500'000);
  agent.poll_once();
  const auto learned =
      net.a.routing_table().effective_initcwnd(net.b.address(), 10);
  ASSERT_GT(learned, 10u);
  ASSERT_EQ(agent.governor().state(), core::GovernorState::kNormal);

  // Stage 1: a lossy interval scales the installed window down in place.
  drop_periodically(net, 5);
  rig.push(300'000);
  agent.poll_once();
  EXPECT_EQ(agent.governor().state(), core::GovernorState::kScaleDown);
  EXPECT_EQ(agent.stats().governor_stage_scaledowns, 1u);
  EXPECT_EQ(agent.stats().governor_routes_stage_scaled, 1u);
  const auto scaled =
      net.a.routing_table().effective_initcwnd(net.b.address(), 10);
  EXPECT_LT(scaled, learned);
  EXPECT_GE(scaled, learned / 2);  // lround(learned * 0.5)

  // Stage 2: still lossy — the (sole, hence newest) route is withdrawn
  // and its learned entry erased so re-learning starts from scratch.
  rig.push(300'000);
  agent.poll_once();
  EXPECT_EQ(agent.governor().state(),
            core::GovernorState::kSelectiveWithdraw);
  EXPECT_EQ(agent.stats().governor_stage_withdrawals, 1u);
  EXPECT_EQ(agent.stats().governor_routes_stage_withdrawn, 1u);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
  EXPECT_EQ(agent.learned(net::Prefix::host(net.b.address())), nullptr);

  // Stage 3: the full rollback + cooldown.
  rig.push(300'000);
  agent.poll_once();
  EXPECT_EQ(agent.governor().state(), core::GovernorState::kCooldown);
  EXPECT_EQ(agent.stats().governor_rollbacks, 1u);
}

TEST(AgentStagedTest, HealthyPollReprogramsTheFullLearnedWindow) {
  TwoHostNet net(Time::milliseconds(20));
  core::RiptideAgent agent(net.sim, net.a, staged_agent_config());
  TrafficRig rig(net);

  rig.push(500'000);
  agent.poll_once();
  drop_periodically(net, 5);
  rig.push(300'000);
  agent.poll_once();
  ASSERT_EQ(agent.governor().state(), core::GovernorState::kScaleDown);

  // Clean again: the ladder de-escalates in one poll and the full learned
  // window (kept unscaled in the table) is reprogrammed from fresh
  // observations.
  net.filter_ab.set_drop_predicate(nullptr);
  rig.push(500'000);
  agent.poll_once();
  EXPECT_EQ(agent.governor().state(), core::GovernorState::kNormal);
  EXPECT_EQ(agent.stats().governor_rollbacks, 0u);
  EXPECT_GT(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
}

TEST(AgentStagedTest, SelectiveWithdrawShedsTheNewestRouteFirst) {
  TwoHostNet net(Time::milliseconds(20));
  core::RiptideAgent agent(net.sim, net.a, staged_agent_config());
  TrafficRig rig(net);

  // A veteran (many updates) and a newcomer (one), both installed. A
  // route is metrics only, so the newcomer's can be programmed even though
  // no such host exists.
  const auto veteran = net::Prefix::host(net.b.address());
  const auto newcomer = net::Prefix::host(net::Ipv4Address(10, 0, 0, 99));
  core::ObservedTable snapshot;
  snapshot.put(veteran, core::DestinationState{60.0, Time::zero(), 40});
  snapshot.put(newcomer, core::DestinationState{30.0, Time::zero(), 1});
  agent.restore_table(std::move(snapshot), /*reinstall_routes=*/true);
  ASSERT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            60u);
  ASSERT_EQ(net.a.routing_table().effective_initcwnd(
                net::Ipv4Address(10, 0, 0, 99), 10),
            30u);

  // Escalate to stage 2: with withdraw_fraction 0.5 exactly one of the two
  // routes goes, and it must be the newcomer.
  drop_periodically(net, 5);
  rig.push(300'000);
  agent.poll_once();  // stage 1
  rig.push(300'000);
  agent.poll_once();  // stage 2
  ASSERT_EQ(agent.governor().state(),
            core::GovernorState::kSelectiveWithdraw);
  EXPECT_EQ(agent.stats().governor_routes_stage_withdrawn, 1u);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(
                net::Ipv4Address(10, 0, 0, 99), 10),
            10u);
  EXPECT_EQ(agent.learned(newcomer), nullptr);
  // The veteran survives (scaled by stage 1, but installed and learned).
  EXPECT_GT(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
  EXPECT_NE(agent.learned(veteran), nullptr);
}

TEST(AgentStagedTest, ManualRollbackWithdrawsEverythingAndCoolsDown) {
  TwoHostNet net(Time::milliseconds(20));
  core::RiptideAgent agent(net.sim, net.a, staged_agent_config());
  TrafficRig rig(net);
  rig.push(500'000);
  agent.poll_once();
  ASSERT_GT(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);

  agent.manual_rollback();
  EXPECT_EQ(agent.stats().governor_rollbacks, 1u);
  EXPECT_EQ(agent.governor().state(), core::GovernorState::kCooldown);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
  EXPECT_EQ(agent.table().size(), 0u);
}

// -------------------------------------------------------- budget fairness

TEST(AgentBudgetFairnessTest, ProportionalFairnessStillDilutesEveryone) {
  // Proportional scaling is the one budget rule: a flash crowd of fresh
  // destinations shrinks the veteran route along with the newcomers, and
  // the learned table keeps every unscaled value.
  TwoHostNet net(Time::milliseconds(20));
  auto config = agent_config();
  config.governor.budget_segments = 60;
  core::RiptideAgent agent(net.sim, net.a, config);
  core::ObservedTable snapshot;
  snapshot.put(net::Prefix::host(net.b.address()),
               core::DestinationState{40.0, Time::zero(), 50});
  snapshot.put(net::Prefix::host(net::Ipv4Address(10, 0, 0, 60)),
               core::DestinationState{30.0, Time::zero(), 1});
  snapshot.put(net::Prefix::host(net::Ipv4Address(10, 0, 0, 70)),
               core::DestinationState{30.0, Time::zero(), 1});
  agent.restore_table(std::move(snapshot), /*reinstall_routes=*/true);

  agent.poll_once();
  // scale = 60 / 100: the veteran shrinks right along with the newcomers.
  EXPECT_EQ(agent.stats().governor_budget_scaledowns, 1u);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            24u);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(
                net::Ipv4Address(10, 0, 0, 60), 10),
            18u);
  EXPECT_DOUBLE_EQ(
      agent.learned(net::Prefix::host(net.b.address()))->final_window_segments,
      40.0);
}

// ----------------------------------------------- governor-state tracing

TEST(GovernorTraceTest, StagedEdgesCarryCauseTags) {
  trace::TraceSink sink;
  trace::ScopedSink scoped(&sink);

  TwoHostNet net(Time::milliseconds(20));
  core::RiptideAgent agent(net.sim, net.a, staged_agent_config());
  TrafficRig rig(net);
  rig.push(500'000);
  agent.poll_once();
  drop_periodically(net, 5);
  rig.push(300'000);
  agent.poll_once();  // -> kScaleDown
  net.filter_ab.set_drop_predicate(nullptr);
  rig.push(500'000);
  agent.poll_once();  // -> back to kNormal

  bool saw_escalation = false;
  bool saw_recovery = false;
  for (const auto& ev : sink.events()) {
    if (ev.kind != trace::EventKind::kGovernorState) continue;
    EXPECT_EQ(ev.governor.host, net.a.address().value());
    if (ev.governor.cause == trace::GovernorCause::kThreshold &&
        ev.governor.from ==
            static_cast<std::uint8_t>(core::GovernorState::kNormal) &&
        ev.governor.to ==
            static_cast<std::uint8_t>(core::GovernorState::kScaleDown)) {
      saw_escalation = true;
      EXPECT_GT(ev.governor.retrans_fraction, 0.02);
      EXPECT_EQ(ev.governor.routes, 1u);
    }
    if (ev.governor.cause == trace::GovernorCause::kRecovered &&
        ev.governor.to ==
            static_cast<std::uint8_t>(core::GovernorState::kNormal)) {
      saw_recovery = true;
    }
  }
  EXPECT_TRUE(saw_escalation);
  EXPECT_TRUE(saw_recovery);
}

TEST(GovernorTraceTest, ManualRollbackAndBudgetShedTagTheirCauses) {
  trace::TraceSink sink;
  trace::ScopedSink scoped(&sink);

  TwoHostNet net(Time::milliseconds(20));
  core::RiptideAgent agent(net.sim, net.a, agent_config());
  core::ObservedTable snapshot;
  snapshot.put(net::Prefix::host(net.b.address()),
               core::DestinationState{30.0, Time::zero(), 5});
  agent.restore_table(std::move(snapshot), /*reinstall_routes=*/true);
  agent.manual_rollback();  // cause: manual, -> kCooldown

  bool saw_manual = false;
  for (const auto& ev : sink.events()) {
    if (ev.kind != trace::EventKind::kGovernorState) continue;
    EXPECT_EQ(ev.governor.cause, trace::GovernorCause::kManual);
    saw_manual = true;
    EXPECT_EQ(ev.governor.to,
              static_cast<std::uint8_t>(core::GovernorState::kCooldown));
    EXPECT_EQ(ev.governor.routes, 1u);
  }
  EXPECT_TRUE(saw_manual);
}

// ----------------------------------------------- emergency rollback (e2e)

TEST(GovernorRollbackTest, LossStormRollsBackCoolsDownAndRelearns) {
  cdn::ExperimentConfig config;
  auto pops = cdn::default_pop_specs();
  pops.resize(3);
  config.pop_specs = std::move(pops);
  config.topology.hosts_per_pop = 1;
  config.riptide_enabled = true;
  config.riptide.update_interval = Time::seconds(1);
  config.probe.interval = Time::seconds(2);
  config.duration = Time::seconds(90);
  config.seed = 11;
  config.riptide.governor.rollback_retrans_fraction = 0.05;
  config.riptide.governor.min_packets = 50;
  config.riptide.governor.cooldown = Time::seconds(10);
  faults::FaultHarness::install(
      config, faults::FaultPlan::parse("@30 loss 0-1 0.3 15"));

  cdn::Experiment experiment(config);
  experiment.run();

  core::AgentStats totals;
  std::size_t learned_at_end = 0;
  for (const auto& agent : experiment.agents()) {
    const auto& s = agent->stats();
    totals.governor_rollbacks += s.governor_rollbacks;
    totals.governor_routes_rolled_back += s.governor_routes_rolled_back;
    totals.governor_cooldown_polls += s.governor_cooldown_polls;
    learned_at_end += agent->table().size();
    EXPECT_TRUE(agent->running());
  }
  // The storm tripped at least one agent's rollback...
  EXPECT_GE(totals.governor_rollbacks, 1u);
  EXPECT_GT(totals.governor_routes_rolled_back, 0u);
  // ...which then sat out its cooldown...
  EXPECT_GT(totals.governor_cooldown_polls, 0u);
  // ...and re-learned from live traffic once the storm passed.
  EXPECT_GT(learned_at_end, 0u);
}

}  // namespace
}  // namespace riptide
