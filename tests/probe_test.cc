#include <gtest/gtest.h>

#include "cdn/metrics.h"
#include "cdn/probe.h"
#include "cdn/traffic.h"
#include "test_util.h"

namespace riptide::cdn {
namespace {

using riptide::test::TwoHostNet;
using sim::Time;

ProbeTarget target_for(TwoHostNet& net) {
  return ProbeTarget{net.b.address(), 1, 20.0};
}

ProbeClientConfig fast_config() {
  ProbeClientConfig config;
  config.interval = Time::seconds(2);
  config.idle_close = Time::seconds(6);
  config.extra_linger = Time::seconds(3);
  return config;
}

struct ProbeWorld {
  ProbeWorld(ProbeClientConfig config = fast_config())
      : net(Time::milliseconds(10)),
        server(net.b),
        client(net.sim, net.a, 0, {target_for(net)}, config, metrics,
               net.rng) {
    server.start();
    client.start();
  }

  TwoHostNet net;
  MetricsCollector metrics;
  ProbeServer server;
  ProbeClient client;
};

TEST(ProbeServerTest, ServesObjectSizedByRequest) {
  TwoHostNet net(Time::milliseconds(10));
  ProbeServer server(net.b);
  server.start();

  std::uint64_t received = 0;
  tcp::TcpConnection* conn = nullptr;
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_established = [&] { conn->send(50); };  // 50 B -> 50 KB object
  cbs.on_data = [&](std::uint64_t bytes) { received += bytes; };
  conn = &net.a.connect(net.b.address(), ProbeServer::kPort,
                        std::move(cbs));
  net.sim.run_until(Time::seconds(3));
  EXPECT_EQ(received, 50'000u);
  EXPECT_EQ(server.objects_served(), 1u);
  EXPECT_EQ(server.bytes_served(), 50'000u);
}

TEST(ProbeServerTest, SequentialRequestsOnOneConnection) {
  TwoHostNet net(Time::milliseconds(10));
  ProbeServer server(net.b);
  server.start();

  std::uint64_t received = 0;
  tcp::TcpConnection* conn = nullptr;
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_established = [&] { conn->send(10); };
  cbs.on_data = [&](std::uint64_t bytes) { received += bytes; };
  conn = &net.a.connect(net.b.address(), ProbeServer::kPort,
                        std::move(cbs));
  net.sim.run_until(Time::seconds(2));
  ASSERT_EQ(received, 10'000u);
  conn->send(100);
  net.sim.run_until(Time::seconds(5));
  EXPECT_EQ(received, 110'000u);
  EXPECT_EQ(server.objects_served(), 2u);
}

TEST(ProbeClientTest, CompletesAllThreeSizesEachRound) {
  ProbeWorld world;
  world.net.sim.run_until(Time::seconds(11));
  // ~5 rounds x 3 flavours, minus in-flight stragglers.
  EXPECT_GE(world.client.probes_completed(), 12u);
  for (std::uint64_t size : {10'000u, 50'000u, 100'000u}) {
    const auto cdf = world.metrics.completion_cdf(
        [=](const FlowRecord& f) { return f.object_bytes == size; });
    EXPECT_GE(cdf.count(), 4u) << size;
  }
}

TEST(ProbeClientTest, MixesFreshAndReusedConnections) {
  ProbeWorld world;
  world.net.sim.run_until(Time::seconds(30));
  // Per round: one flavour reuses the pooled connection, two open fresh.
  EXPECT_GT(world.client.reuses(), 5u);
  EXPECT_GT(world.client.fresh_connections_opened(), 10u);
  EXPECT_GT(world.client.fresh_connections_opened(), world.client.reuses());

  std::size_t fresh = 0, reused = 0;
  for (const auto& flow : world.metrics.flows()) {
    (flow.fresh ? fresh : reused)++;
  }
  EXPECT_GT(fresh, 0u);
  EXPECT_GT(reused, 0u);
}

TEST(ProbeClientTest, ReusedProbesSkipHandshake) {
  ProbeWorld world;
  world.net.sim.run_until(Time::seconds(30));
  const auto fresh_cdf = world.metrics.completion_cdf(
      [](const FlowRecord& f) { return f.fresh && f.object_bytes == 10'000; });
  const auto reused_cdf = world.metrics.completion_cdf(
      [](const FlowRecord& f) { return !f.fresh && f.object_bytes == 10'000; });
  ASSERT_FALSE(fresh_cdf.empty());
  ASSERT_FALSE(reused_cdf.empty());
  // Fresh 10 KB: handshake + 1 RTT ~= 40 ms; reused: 1 RTT ~= 20 ms.
  EXPECT_GT(fresh_cdf.percentile(50), reused_cdf.percentile(50) + 15.0);
}

TEST(ProbeClientTest, ConnectionCountBounded) {
  ProbeWorld world;
  world.net.sim.run_until(Time::seconds(40));
  // Pool (1) + up to 2 fresh per round lingering 3 s over 2 s rounds, plus
  // TIME-WAIT residue: must stay small, not grow linearly with rounds.
  EXPECT_LE(world.net.a.connection_count(), 16u);
}

TEST(ProbeClientTest, FlowRecordsCarryMetadata) {
  ProbeWorld world;
  world.net.sim.run_until(Time::seconds(10));
  ASSERT_FALSE(world.metrics.flows().empty());
  for (const auto& flow : world.metrics.flows()) {
    EXPECT_EQ(flow.src_pop, 0);
    EXPECT_EQ(flow.dst_pop, 1);
    EXPECT_DOUBLE_EQ(flow.base_rtt_ms, 20.0);
    EXPECT_GT(flow.duration, Time::zero());
  }
}

TEST(ProbeClientTest, SkipsRoundWhenPreviousProbeInFlight) {
  auto config = fast_config();
  config.interval = Time::milliseconds(50);  // faster than one RTT
  ProbeWorld world(config);
  world.net.sim.run_until(Time::seconds(2));
  EXPECT_GT(world.client.probes_skipped_busy(), 0u);
}

TEST(ProbeClientTest, FailedProbesCountedOnReset) {
  ProbeWorld world;
  world.net.sim.run_until(Time::seconds(3));
  // Kill every live connection mid-flight from the server side.
  world.net.filter_ab.set_drop_predicate(
      [](const net::Packet&) { return true; });
  // In-flight probes eventually exhaust retries and report failure; give
  // the RTO backoff plenty of time.
  world.net.sim.run_until(Time::seconds(400));
  EXPECT_GT(world.client.probes_failed(), 0u);
}

// ------------------------------------------------------------ SinkServer

TEST(SinkServerTest, ConsumesBytes) {
  TwoHostNet net(Time::milliseconds(10));
  SinkServer sink(net.b);
  sink.start();
  tcp::TcpConnection::Callbacks cbs;
  auto& conn =
      net.a.connect(net.b.address(), SinkServer::kPort, std::move(cbs));
  net.sim.run_until(Time::milliseconds(100));
  conn.send(123'456);
  net.sim.run_until(Time::seconds(5));
  EXPECT_EQ(sink.bytes_received(), 123'456u);
  EXPECT_EQ(sink.connections_accepted(), 1u);
}

// ---------------------------------------------------------- OrganicSource

TEST(OrganicSourceTest, GeneratesTrafficToSink) {
  TwoHostNet net(Time::milliseconds(10));
  SinkServer sink(net.b);
  sink.start();
  OrganicSourceConfig config;
  config.mean_interarrival_seconds = 0.05;
  OrganicSource source(net.sim, net.a, {net.b.address()}, config, net.rng);
  source.start();
  net.sim.run_until(Time::seconds(10));
  EXPECT_GT(source.transfers_started(), 100u);
  EXPECT_GT(sink.bytes_received(), 100'000u);
}

TEST(OrganicSourceTest, CloseProbabilityForcesNewConnections) {
  TwoHostNet net(Time::milliseconds(10));
  SinkServer sink(net.b);
  sink.start();
  OrganicSourceConfig config;
  config.mean_interarrival_seconds = 0.05;
  config.close_probability = 1.0;  // every transfer closes afterwards
  OrganicSource source(net.sim, net.a, {net.b.address()}, config, net.rng);
  source.start();
  net.sim.run_until(Time::seconds(10));
  EXPECT_GT(net.a.stats().connections_opened, 10u);
  EXPECT_GT(sink.bytes_received(), 0u);
}

TEST(OrganicSourceTest, NoTargetsIsANoop) {
  TwoHostNet net(Time::milliseconds(10));
  OrganicSource source(net.sim, net.a, {}, OrganicSourceConfig{}, net.rng);
  source.start();
  net.sim.run_until(Time::seconds(2));
  EXPECT_EQ(source.transfers_started(), 0u);
}

}  // namespace
}  // namespace riptide::cdn
