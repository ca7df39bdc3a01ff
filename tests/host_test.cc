#include <gtest/gtest.h>

#include <cstdint>

#include "host/host.h"
#include "host/routing_table.h"
#include "tcp/cubic.h"
#include "tcp/segment.h"
#include "test_util.h"

namespace riptide::host {
namespace {

using riptide::test::TwoHostNet;
using sim::Time;

// What one socket costs: a paper world keeps about 21.5k of them alive,
// each a TcpConnection in its host's table node plus its controller (Cubic
// by default). A pooled segment with its three SACK blocks fills exactly
// two cache lines. Pinned so that a member added later shows its cost in
// review. The sizes are libstdc++'s on a 64-bit target.
#if defined(__GLIBCXX__) && INTPTR_MAX == INT64_MAX
static_assert(sizeof(tcp::TcpConnection) == 576);
static_assert(sizeof(tcp::Cubic) == 96);
static_assert(sizeof(tcp::Segment) == 128);
#endif

// ------------------------------------------------------------ RoutingTable

TEST(RoutingTableTest, LongestPrefixMatch) {
  RoutingTable table;
  const auto wide = net::Prefix::parse("10.0.0.0/8");
  const auto narrow = net::Prefix::parse("10.1.0.0/16");
  const auto host = net::Prefix::host(net::Ipv4Address(10, 1, 0, 7));
  table.add_or_replace(wide, RouteMetrics{20, 0});
  table.add_or_replace(narrow, RouteMetrics{30, 0});
  table.add_or_replace(host, RouteMetrics{40, 0});

  EXPECT_EQ(table.lookup(net::Ipv4Address(10, 2, 0, 1))->prefix, wide);
  EXPECT_EQ(table.lookup(net::Ipv4Address(10, 1, 9, 9))->prefix, narrow);
  EXPECT_EQ(table.lookup(net::Ipv4Address(10, 1, 0, 7))->prefix, host);
  EXPECT_EQ(table.effective_initcwnd(net::Ipv4Address(10, 1, 9, 9), 10), 30u);
  EXPECT_EQ(table.lookup(net::Ipv4Address(192, 168, 0, 1)), nullptr);
}

TEST(RoutingTableTest, ReplaceUpdatesMetricsInPlace) {
  RoutingTable table;
  const auto p = net::Prefix::parse("10.0.0.0/8");
  table.add_or_replace(p, RouteMetrics{20, 0});
  table.add_or_replace(p, RouteMetrics{80, 120});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(net::Ipv4Address(10, 0, 0, 1))->metrics.initcwnd_segments,
            80u);
}

TEST(RoutingTableTest, RemoveRestoresLessSpecific) {
  RoutingTable table;
  const auto wide = net::Prefix::parse("0.0.0.0/0");
  table.add_or_replace(wide, RouteMetrics{20, 0});
  const auto specific = net::Prefix::host(net::Ipv4Address(10, 0, 0, 5));
  table.add_or_replace(specific, RouteMetrics{50, 0});
  EXPECT_EQ(table.effective_initcwnd(net::Ipv4Address(10, 0, 0, 5), 10), 50u);
  EXPECT_TRUE(table.remove(specific));
  EXPECT_EQ(table.lookup(net::Ipv4Address(10, 0, 0, 5))->prefix, wide);
  EXPECT_EQ(table.effective_initcwnd(net::Ipv4Address(10, 0, 0, 5), 10), 20u);
  EXPECT_FALSE(table.remove(specific));
}

TEST(RoutingTableTest, EffectiveWindowsFallBackWhenUnset) {
  RoutingTable table;
  table.add_or_replace(net::Prefix::parse("0.0.0.0/0"));  // no metrics
  const auto dst = net::Ipv4Address(10, 0, 0, 9);
  EXPECT_EQ(table.effective_initcwnd(dst, 10), 10u);
  EXPECT_EQ(table.effective_initrwnd(dst, 20), 20u);

  table.add_or_replace(net::Prefix::host(dst), RouteMetrics{70, 90});
  EXPECT_EQ(table.effective_initcwnd(dst, 10), 70u);
  EXPECT_EQ(table.effective_initrwnd(dst, 20), 90u);
}

TEST(RoutingTableTest, EffectiveWindowsForUnroutedDestination) {
  RoutingTable table;
  EXPECT_EQ(table.effective_initcwnd(net::Ipv4Address(1, 1, 1, 1), 10), 10u);
}

TEST(RoutingTableTest, HasRouteIsExactMatch) {
  RoutingTable table;
  table.add_or_replace(net::Prefix::parse("10.0.0.0/8"));
  EXPECT_TRUE(table.has_route(net::Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(table.has_route(net::Prefix::parse("10.0.0.0/16")));
}

// ------------------------------------------------------------------- Host

TEST(HostTest, ConnectUsesRouteInitcwnd) {
  TwoHostNet net(Time::milliseconds(10));
  net.a.routing_table().add_or_replace(net::Prefix::host(net.b.address()),
                                       RouteMetrics{64, 0});
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 80, std::move(cbs));
  EXPECT_EQ(conn.config().initial_cwnd_segments, 64u);
  EXPECT_EQ(conn.cwnd_segments(), 64u);
}

TEST(HostTest, ConnectUsesDefaultWithoutRouteMetrics) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 80, std::move(cbs));
  EXPECT_EQ(conn.config().initial_cwnd_segments, 10u);
}

TEST(HostTest, OverrideConfigStillGetsRouteMetricsApplied) {
  TwoHostNet net(Time::milliseconds(10));
  net.a.routing_table().add_or_replace(net::Prefix::host(net.b.address()),
                                       RouteMetrics{33, 44});
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConfig custom;
  custom.congestion_control = tcp::CcAlgorithm::kNewReno;
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 80, std::move(cbs), custom);
  EXPECT_EQ(conn.config().initial_cwnd_segments, 33u);
  EXPECT_EQ(conn.config().initial_rwnd_segments, 44u);
  EXPECT_EQ(conn.config().congestion_control, tcp::CcAlgorithm::kNewReno);
}

TEST(HostTest, SegmentsLeaveByTheUplinkWithAnEmptyTable) {
  // Routes are read when a connection opens and never again: once open, a
  // connection keeps its initcwnd and keeps sending after every entry of
  // the table is gone.
  TwoHostNet net(Time::milliseconds(10));
  RoutingTable& table = net.a.routing_table();
  table.add_or_replace(net::Prefix::host(net.b.address()),
                       RouteMetrics{50, 0});
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 80, std::move(cbs));
  while (table.size() > 0) table.remove(table.entries().front().prefix);

  conn.send(200'000);
  net.sim.run_until(Time::seconds(2));
  EXPECT_EQ(conn.bytes_acked(), 200'000u);
  EXPECT_EQ(conn.config().initial_cwnd_segments, 50u);
  EXPECT_EQ(net.a.stats().no_route_drops, 0u);
}

TEST(HostTest, HostWithoutUplinkCountsEverySegmentAsNoRouteDrop) {
  sim::Simulator sim;
  Host lone(sim, "lone", net::Ipv4Address(10, 0, 0, 1));
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = lone.connect(net::Ipv4Address(10, 0, 0, 2), 80, std::move(cbs));
  sim.run_until(Time::seconds(4));  // the SYN and its retransmissions
  EXPECT_GT(conn.stats().segments_sent, 1u);
  EXPECT_EQ(lone.stats().no_route_drops, conn.stats().segments_sent);
  EXPECT_EQ(lone.stats().packets_sent, 0u);
}

TEST(HostTest, EphemeralPortsDistinct) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConnection::Callbacks cbs1, cbs2;
  auto& c1 = net.a.connect(net.b.address(), 80, std::move(cbs1));
  auto& c2 = net.a.connect(net.b.address(), 80, std::move(cbs2));
  EXPECT_NE(c1.tuple().local_port, c2.tuple().local_port);
}

TEST(HostTest, SocketStatsReflectsLiveConnections) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConnection::Callbacks cbs;
  net.a.connect(net.b.address(), 80, std::move(cbs));
  net.sim.run_until(Time::milliseconds(100));
  const auto stats = net.a.socket_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].state, tcp::TcpState::kEstablished);
  EXPECT_EQ(stats[0].tuple.remote_addr, net.b.address());
  EXPECT_EQ(stats[0].cwnd_segments, 10u);
  // Server side also sees its accepted connection.
  EXPECT_EQ(net.b.socket_stats().size(), 1u);
}

TEST(HostTest, RstSentForSegmentToClosedPort) {
  TwoHostNet net(Time::milliseconds(10));
  tcp::TcpConnection::Callbacks cbs;
  bool closed_reset = false;
  cbs.on_closed = [&](bool reset) { closed_reset = reset; };
  net.a.connect(net.b.address(), 4242, std::move(cbs));
  net.sim.run_until(Time::milliseconds(100));
  EXPECT_EQ(net.b.stats().rst_sent, 1u);
  EXPECT_TRUE(closed_reset);
  EXPECT_EQ(net.a.connection_count(), 0u);
}

TEST(HostTest, ListenRejectsDuplicatePort) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  EXPECT_THROW(net.b.listen(80, [](tcp::TcpConnection&) {}),
               std::logic_error);
}

TEST(HostTest, CloseListenerStopsAccepting) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  net.b.close_listener(80);
  tcp::TcpConnection::Callbacks cbs;
  bool reset = false;
  cbs.on_closed = [&](bool r) { reset = r; };
  net.a.connect(net.b.address(), 80, std::move(cbs));
  net.sim.run_until(Time::milliseconds(200));
  EXPECT_TRUE(reset);
}

TEST(HostTest, CountersTrackOpensAndAccepts) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  for (int i = 0; i < 3; ++i) {
    tcp::TcpConnection::Callbacks cbs;
    net.a.connect(net.b.address(), 80, std::move(cbs));
  }
  net.sim.run_until(Time::milliseconds(200));
  EXPECT_EQ(net.a.stats().connections_opened, 3u);
  EXPECT_EQ(net.b.stats().connections_accepted, 3u);
  EXPECT_GT(net.a.stats().packets_sent, 0u);
  EXPECT_GT(net.b.stats().packets_received, 0u);
}

TEST(HostTest, FindConnectionByTuple) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 80, std::move(cbs));
  EXPECT_EQ(net.a.find_connection(conn.tuple()), &conn);
  tcp::FourTuple missing = conn.tuple();
  missing.remote_port = 9999;
  EXPECT_EQ(net.a.find_connection(missing), nullptr);
}

TEST(HostTest, ConnectionKeepsItsAddressWhileTheTableRehashes) {
  // Each connection lives in its table node. Growing the table to 301
  // entries rehashes it several times, which moves no node: a reference
  // taken at connect stays the connection that find_connection returns,
  // and it still carries a transfer to the end.
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  auto& held = net.a.connect(net.b.address(), 80, {});
  const tcp::FourTuple tuple = held.tuple();
  for (int i = 0; i < 300; ++i) net.a.connect(net.b.address(), 80, {});
  ASSERT_EQ(net.a.connection_count(), 301u);
  EXPECT_EQ(net.a.find_connection(tuple), &held);

  held.send(100'000);
  net.sim.run_until(Time::seconds(2));
  EXPECT_EQ(net.b.connection_count(), 301u);
  EXPECT_EQ(net.a.find_connection(tuple), &held);
  EXPECT_EQ(held.bytes_acked(), 100'000u);
}

TEST(HostTest, ClosedConnectionsLeaveSocketStats) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 80, std::move(cbs));
  net.sim.run_until(Time::milliseconds(100));
  conn.abort();
  net.sim.run_until(Time::milliseconds(200));
  EXPECT_TRUE(net.a.socket_stats().empty());
  EXPECT_EQ(net.a.connection_count(), 0u);
}

}  // namespace
}  // namespace riptide::host
