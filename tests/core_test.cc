#include <gtest/gtest.h>

#include <map>

#include "core/agent.h"
#include "core/combiner.h"
#include "core/config.h"
#include "core/observed_table.h"
#include "core/route_programmer.h"
#include "test_util.h"

namespace riptide::core {
namespace {

using riptide::test::TwoHostNet;
using sim::Time;

// --------------------------------------------------------------- Combiner

TEST(CombinerTest, AverageIsMean) {
  AverageCombiner c;
  EXPECT_DOUBLE_EQ(c.combine({{10, 0}, {20, 0}, {30, 0}}), 20.0);
}

TEST(CombinerTest, AverageSingleObservation) {
  AverageCombiner c;
  EXPECT_DOUBLE_EQ(c.combine({{42, 0}}), 42.0);
}

TEST(CombinerTest, MaxPicksLargest) {
  MaxCombiner c;
  EXPECT_DOUBLE_EQ(c.combine({{10, 0}, {90, 0}, {30, 0}}), 90.0);
}

TEST(CombinerTest, TrafficWeightedFavorsBusyConnections) {
  TrafficWeightedCombiner c;
  // A barely used connection at window 100 vs a busy one at window 20.
  const double v = c.combine({{100, 0}, {20, 1'000'000}});
  EXPECT_LT(v, 25.0);
  EXPECT_GT(v, 19.0);
}

TEST(CombinerTest, TrafficWeightedEqualTrafficIsMean) {
  TrafficWeightedCombiner c;
  EXPECT_NEAR(c.combine({{10, 5000}, {30, 5000}}), 20.0, 0.01);
}

TEST(CombinerTest, EmptyObservationsThrow) {
  EXPECT_THROW(AverageCombiner{}.combine({}), std::invalid_argument);
  EXPECT_THROW(MaxCombiner{}.combine({}), std::invalid_argument);
  EXPECT_THROW(TrafficWeightedCombiner{}.combine({}), std::invalid_argument);
}

TEST(CombinerTest, FactoryProducesRequestedKind) {
  EXPECT_STREQ(make_combiner(CombinerKind::kAverage)->name(), "average");
  EXPECT_STREQ(make_combiner(CombinerKind::kMax)->name(), "max");
  EXPECT_STREQ(make_combiner(CombinerKind::kTrafficWeighted)->name(),
               "traffic-weighted");
}

// ----------------------------------------------------------- ObservedTable

TEST(ObservedTableTest, FirstFoldSeedsWithObservation) {
  ObservedTable table;
  const auto dst = net::Prefix::parse("10.1.0.0/16");
  EXPECT_DOUBLE_EQ(table.fold(dst, 40.0, 0.5, Time::seconds(1)), 40.0);
  EXPECT_TRUE(table.contains(dst));
}

TEST(ObservedTableTest, FoldAppliesEwma) {
  ObservedTable table;
  const auto dst = net::Prefix::parse("10.1.0.0/16");
  table.fold(dst, 40.0, 0.5, Time::seconds(1));
  table.store_final(dst, 40.0, Time::seconds(1));
  // 0.5 * 40 + 0.5 * 80 = 60
  EXPECT_DOUBLE_EQ(table.fold(dst, 80.0, 0.5, Time::seconds(2)), 60.0);
}

TEST(ObservedTableTest, FoldUsesStoredFinalAsHistory) {
  ObservedTable table;
  const auto dst = net::Prefix::parse("10.1.0.0/16");
  table.fold(dst, 500.0, 0.5, Time::seconds(1));
  table.store_final(dst, 100.0, Time::seconds(1));  // clamped by caller
  // History is the clamped 100, not the raw 500.
  EXPECT_DOUBLE_EQ(table.fold(dst, 100.0, 0.5, Time::seconds(2)), 100.0);
}

TEST(ObservedTableTest, ExpireRemovesOnlyStaleEntries) {
  ObservedTable table;
  const auto old_dst = net::Prefix::parse("10.1.0.0/16");
  const auto fresh_dst = net::Prefix::parse("10.2.0.0/16");
  table.store_final(old_dst, 50.0, Time::seconds(0));
  table.store_final(fresh_dst, 50.0, Time::seconds(95));
  const auto expired = table.expire(Time::seconds(100), Time::seconds(90));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], old_dst);
  EXPECT_FALSE(table.contains(old_dst));
  EXPECT_TRUE(table.contains(fresh_dst));
}

TEST(ObservedTableTest, EntryExactlyAtTtlSurvives) {
  ObservedTable table;
  const auto dst = net::Prefix::parse("10.1.0.0/16");
  table.store_final(dst, 50.0, Time::seconds(10));
  EXPECT_TRUE(table.expire(Time::seconds(100), Time::seconds(90)).empty());
  EXPECT_TRUE(table.contains(dst));
}

TEST(ObservedTableTest, UpdateCountsTracked) {
  ObservedTable table;
  const auto dst = net::Prefix::parse("10.1.0.0/16");
  table.fold(dst, 10.0, 0.5, Time::seconds(1));
  table.fold(dst, 10.0, 0.5, Time::seconds(2));
  EXPECT_EQ(table.find(dst)->updates, 2u);
  EXPECT_EQ(table.find(net::Prefix::parse("10.9.0.0/16")), nullptr);
}

// --------------------------------------------------------- RouteProgrammer

class RecordingProgrammer : public RouteProgrammer {
 public:
  void set_initial_windows(const net::Prefix& dst, std::uint32_t initcwnd,
                           std::uint32_t initrwnd,
                           tcp::RouteCc = tcp::RouteCc::kUnset) override {
    programmed[dst] = {initcwnd, initrwnd};
  }
  void clear(const net::Prefix& dst) override {
    programmed.erase(dst);
    ++clears;
  }
  std::map<net::Prefix, std::pair<std::uint32_t, std::uint32_t>> programmed;
  int clears = 0;
};

TEST(HostRouteProgrammerTest, ProgramsAndClearsHostRoutes) {
  TwoHostNet net(Time::milliseconds(10));
  HostRouteProgrammer programmer(net.a);
  const auto dst = net::Prefix::host(net.b.address());
  programmer.set_initial_windows(dst, 77, 100);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            77u);
  EXPECT_EQ(programmer.routes_programmed(), 1u);

  programmer.clear(dst);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
  EXPECT_EQ(programmer.routes_cleared(), 1u);
}

TEST(HostRouteProgrammerTest, RefusesDefaultRoute) {
  TwoHostNet net(Time::milliseconds(10));
  HostRouteProgrammer programmer(net.a);
  EXPECT_THROW(programmer.set_initial_windows(
                   net::Prefix(net::Ipv4Address(0), 0), 50, 0),
               std::invalid_argument);
}

TEST(HostRouteProgrammerTest, ProgramReprogramClearRoundTrip) {
  TwoHostNet net(Time::milliseconds(10));
  HostRouteProgrammer programmer(net.a);
  const auto dst = net::Prefix::host(net.b.address());

  programmer.set_initial_windows(dst, 50, 60);
  programmer.set_initial_windows(dst, 70, 80);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            70u);
  EXPECT_EQ(programmer.routes_programmed(), 2u);

  programmer.clear(dst);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);  // back to the system default
  EXPECT_FALSE(net.a.routing_table().has_route(dst));
}

TEST(HostRouteProgrammerTest, ClearOnWithdrawnRouteIsNoOp) {
  TwoHostNet net(Time::milliseconds(10));
  HostRouteProgrammer programmer(net.a);
  const auto dst = net::Prefix::host(net.b.address());

  programmer.clear(dst);  // nothing installed yet
  EXPECT_EQ(programmer.routes_cleared(), 0u);

  programmer.set_initial_windows(dst, 50, 0);
  programmer.clear(dst);
  programmer.clear(dst);  // double clear: second is a no-op
  EXPECT_EQ(programmer.routes_cleared(), 1u);
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
}

// ------------------------------------------------------------ RiptideAgent

// Establishes a data-carrying connection a -> b and returns once cwnd on
// the sender (a) has grown past the initial window.
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

RiptideConfig test_config() {
  RiptideConfig config;
  config.alpha = 0.0;  // no history: deterministic single-poll assertions
  config.c_max = 100;
  config.c_min = 10;
  return config;
}

TEST(RiptideAgentTest, LearnsWindowAndProgramsRoute) {
  TwoHostNet net(Time::milliseconds(20));
  RiptideAgent agent(net.sim, net.a, test_config());
  push_data(net, 500'000);  // grows a's cwnd well past 10

  agent.poll_once();
  const auto key = net::Prefix::host(net.b.address());
  const auto* learned = agent.learned(key);
  ASSERT_NE(learned, nullptr);
  EXPECT_GT(learned->final_window_segments, 10.0);
  EXPECT_GT(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
  EXPECT_EQ(agent.stats().routes_set, 1u);
}

TEST(RiptideAgentTest, ClampsToCmax) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = test_config();
  config.c_max = 30;
  RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 2'000'000);

  agent.poll_once();
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            30u);
}

TEST(RiptideAgentTest, ClampsToCmin) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = test_config();
  config.c_min = 10;
  RiptideAgent agent(net.sim, net.a, config);
  // A connection that only ever carried a handful of bytes keeps cwnd 10,
  // but force c_min higher to observe the floor.
  config.c_min = 25;
  RiptideAgent floored(net.sim, net.a, config);
  push_data(net, 1'000);

  floored.poll_once();
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            25u);
}

TEST(RiptideAgentTest, SetsInitrwndToCoverCmax) {
  TwoHostNet net(Time::milliseconds(20));
  RiptideAgent agent(net.sim, net.a, test_config());
  push_data(net, 100'000);
  agent.poll_once();
  EXPECT_EQ(net.a.routing_table().effective_initrwnd(net.b.address(), 20),
            100u);  // == c_max
}

TEST(RiptideAgentTest, InitrwndDisabled) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = test_config();
  config.set_initrwnd = false;
  RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 100'000);
  agent.poll_once();
  EXPECT_EQ(net.a.routing_table().effective_initrwnd(net.b.address(), 20),
            20u);
}

TEST(RiptideAgentTest, EwmaSmoothsAcrossPolls) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = test_config();
  config.alpha = 0.5;
  RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 500'000);

  agent.poll_once();
  const auto key = net::Prefix::host(net.b.address());
  const double first = agent.learned(key)->final_window_segments;

  // Second poll sees the same (now idle) window; EWMA stays put.
  agent.poll_once();
  const double second = agent.learned(key)->final_window_segments;
  EXPECT_NEAR(second, first, 1.0);
}

TEST(RiptideAgentTest, TtlExpiryRemovesRoute) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = test_config();
  config.ttl = Time::seconds(30);
  RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 500'000);
  agent.poll_once();
  ASSERT_GT(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);

  // Close the connection, advance past the TTL, poll again: the entry and
  // route must be withdrawn, restoring the default IW10.
  for (const auto& info : net.a.socket_stats()) {
    net.a.find_connection(info.tuple)->abort();
  }
  net.sim.run_until(net.sim.now() + Time::seconds(31));
  agent.poll_once();
  EXPECT_EQ(net.a.routing_table().effective_initcwnd(net.b.address(), 10),
            10u);
  EXPECT_EQ(agent.stats().routes_expired, 1u);
}

TEST(RiptideAgentTest, ChurnWithdrawsExactlyOncePerExpiry) {
  // Snapshot source the test scripts directly, so learn/expire cycles can
  // be driven without real connections.
  class ScriptedSource : public SocketStatsSource {
   public:
    std::vector<host::SocketInfo> next;
    std::vector<host::SocketInfo> poll() override { return next; }
  };

  TwoHostNet net(Time::milliseconds(20));
  auto config = test_config();
  config.ttl = Time::seconds(30);
  auto recording = std::make_unique<RecordingProgrammer>();
  auto* programmer = recording.get();
  auto scripted = std::make_unique<ScriptedSource>();
  auto* source = scripted.get();
  RiptideAgent agent(net.sim, net.a, config, std::move(recording),
                     std::move(scripted));

  host::SocketInfo info;
  info.tuple.local_addr = net.a.address();
  info.tuple.local_port = 40000;
  info.tuple.remote_addr = net.b.address();
  info.tuple.remote_port = 9900;
  info.state = tcp::TcpState::kEstablished;
  info.cwnd_segments = 40;
  info.bytes_acked = 100'000;

  // Two learn -> idle -> expire cycles. Each expiry must withdraw the
  // route exactly once: the entry leaves the table with the withdrawal,
  // so subsequent idle polls have nothing left to clear.
  for (int cycle = 1; cycle <= 2; ++cycle) {
    source->next = {info};
    agent.poll_once();
    ASSERT_EQ(agent.table().size(), 1u);
    source->next.clear();
    net.sim.run_until(net.sim.now() + Time::seconds(31));
    agent.poll_once();  // past TTL: expires and withdraws
    agent.poll_once();  // extra idle poll: nothing left to withdraw
    EXPECT_EQ(agent.table().size(), 0u);
    EXPECT_EQ(agent.stats().routes_expired, static_cast<std::uint64_t>(cycle));
    EXPECT_EQ(programmer->clears, cycle);
  }
}

TEST(RiptideAgentTest, PrefixGranularityAggregatesHosts) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = test_config();
  config.granularity = Granularity::kPrefix;
  config.prefix_length = 24;
  RiptideAgent agent(net.sim, net.a, config);
  push_data(net, 200'000);
  agent.poll_once();

  const auto key = net::Prefix(net.b.address(), 24);
  EXPECT_NE(agent.learned(key), nullptr);
  // Any host within the /24 now resolves to the learned window.
  EXPECT_GT(net.a.routing_table().effective_initcwnd(
                net::Ipv4Address(10, 0, 0, 200), 10),
            10u);
}

TEST(RiptideAgentTest, DestinationKeyRespectsGranularity) {
  TwoHostNet net(Time::milliseconds(20));
  auto host_cfg = test_config();
  RiptideAgent host_agent(net.sim, net.a, host_cfg);
  EXPECT_EQ(host_agent.destination_key(net::Ipv4Address(10, 3, 2, 1)),
            net::Prefix::host(net::Ipv4Address(10, 3, 2, 1)));

  auto prefix_cfg = test_config();
  prefix_cfg.granularity = Granularity::kPrefix;
  prefix_cfg.prefix_length = 16;
  RiptideAgent prefix_agent(net.sim, net.a, prefix_cfg);
  EXPECT_EQ(prefix_agent.destination_key(net::Ipv4Address(10, 3, 2, 1)),
            net::Prefix::parse("10.3.0.0/16"));
}

TEST(RiptideAgentTest, IgnoresNonEstablishedConnections) {
  TwoHostNet net(Time::milliseconds(20));
  // SYN to a filtered path: connection stays in SYN-SENT.
  net.filter_ab.set_drop_predicate([](const net::Packet&) { return true; });
  tcp::TcpConnection::Callbacks cbs;
  net.a.connect(net.b.address(), 80, std::move(cbs));
  RiptideAgent agent(net.sim, net.a, test_config());
  agent.poll_once();
  EXPECT_EQ(agent.table().size(), 0u);
}

TEST(RiptideAgentTest, PeriodicPollingViaStart) {
  TwoHostNet net(Time::milliseconds(20));
  auto config = test_config();
  config.update_interval = Time::seconds(1);
  RiptideAgent agent(net.sim, net.a, config);
  agent.start();
  EXPECT_TRUE(agent.running());
  push_data(net, 200'000);  // runs the sim ~5 s: several polls happen
  EXPECT_GE(agent.stats().polls, 4u);
  agent.stop();
  const auto polls = agent.stats().polls;
  net.sim.run_until(net.sim.now() + Time::seconds(5));
  EXPECT_EQ(agent.stats().polls, polls);
}

TEST(RiptideAgentTest, CustomProgrammerReceivesDecisions) {
  TwoHostNet net(Time::milliseconds(20));
  auto programmer = std::make_unique<RecordingProgrammer>();
  auto* raw = programmer.get();
  RiptideAgent agent(net.sim, net.a, test_config(), std::move(programmer));
  push_data(net, 500'000);
  agent.poll_once();
  ASSERT_EQ(raw->programmed.size(), 1u);
  const auto& [initcwnd, initrwnd] =
      raw->programmed.at(net::Prefix::host(net.b.address()));
  EXPECT_GT(initcwnd, 10u);
  EXPECT_EQ(initrwnd, 100u);
}

TEST(RiptideAgentTest, RejectsInvalidConfig) {
  TwoHostNet net(Time::milliseconds(20));
  auto bad_alpha = test_config();
  bad_alpha.alpha = 1.5;
  EXPECT_THROW(RiptideAgent(net.sim, net.a, bad_alpha),
               std::invalid_argument);

  auto bad_clamp = test_config();
  bad_clamp.c_min = 200;
  bad_clamp.c_max = 100;
  EXPECT_THROW(RiptideAgent(net.sim, net.a, bad_clamp),
               std::invalid_argument);

  auto bad_prefix = test_config();
  bad_prefix.granularity = Granularity::kPrefix;
  bad_prefix.prefix_length = 0;
  EXPECT_THROW(RiptideAgent(net.sim, net.a, bad_prefix),
               std::invalid_argument);
}

// The closed-loop property at the heart of the paper: after Riptide
// observes a grown window, *new* connections to the same destination start
// with the learned initial window.
TEST(RiptideAgentTest, NewConnectionsStartAtLearnedWindow) {
  TwoHostNet net(Time::milliseconds(20));
  RiptideAgent agent(net.sim, net.a, test_config());
  push_data(net, 500'000);
  agent.poll_once();
  const auto learned =
      net.a.routing_table().effective_initcwnd(net.b.address(), 10);
  ASSERT_GT(learned, 10u);

  tcp::TcpConnection::Callbacks cbs;
  auto& fresh = net.a.connect(net.b.address(), 9900, std::move(cbs));
  EXPECT_EQ(fresh.cwnd_segments(), learned);
}

}  // namespace
}  // namespace riptide::core
