#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "host/host.h"
#include "test_util.h"

namespace riptide::tcp {
namespace {

using riptide::test::TwoHostNet;
using sim::Time;

constexpr std::uint16_t kPort = 80;

// Sets host `b` up as an object server: after every `request_bytes`
// received it sends `object_bytes` back.
void serve_objects(host::Host& server, std::uint64_t object_bytes,
                   std::uint32_t request_bytes = 200,
                   std::uint16_t port = kPort) {
  server.listen(port, [object_bytes, request_bytes](TcpConnection& conn) {
    auto pending = std::make_shared<std::uint64_t>(0);
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&conn, pending, object_bytes,
                   request_bytes](std::uint64_t bytes) {
      *pending += bytes;
      while (*pending >= request_bytes) {
        *pending -= request_bytes;
        conn.send(object_bytes);
      }
    };
    cbs.on_peer_closed = [&conn] { conn.close(); };
    conn.set_callbacks(std::move(cbs));
  });
}

struct FetchResult {
  std::optional<Time> completed_at;
  TcpConnection* conn = nullptr;
  std::uint64_t received = 0;
  bool closed = false;
  bool reset = false;
};

// Opens a connection a->b, requests one object, records completion time.
// Results are parked in a process-lifetime arena: the callbacks capture
// the pointer, and the connection can outlive the calling scope.
FetchResult* fetch_object(TwoHostNet& net, std::uint64_t object_bytes,
                          std::uint16_t port = kPort) {
  static std::vector<std::unique_ptr<FetchResult>> arena;
  auto* result = arena.emplace_back(std::make_unique<FetchResult>()).get();
  TcpConnection::Callbacks cbs;
  cbs.on_established = [result] { result->conn->send(200); };
  cbs.on_data = [result, object_bytes, &net](std::uint64_t bytes) {
    result->received += bytes;
    if (result->received >= object_bytes && !result->completed_at) {
      result->completed_at = net.sim.now();
    }
  };
  cbs.on_closed = [result](bool reset) {
    result->closed = true;
    result->reset = reset;
  };
  result->conn = &net.a.connect(net.b.address(), port, std::move(cbs));
  return result;
}

// ---------------------------------------------------------- basic lifecycle

TEST(TcpConnectionTest, HandshakeEstablishesBothEnds) {
  TwoHostNet net(Time::milliseconds(50));
  bool server_established = false;
  net.b.listen(kPort, [&](TcpConnection& conn) {
    TcpConnection::Callbacks cbs;
    cbs.on_established = [&] { server_established = true; };
    conn.set_callbacks(std::move(cbs));
  });

  bool client_established = false;
  TcpConnection::Callbacks cbs;
  cbs.on_established = [&] { client_established = true; };
  auto& conn = net.a.connect(net.b.address(), kPort, std::move(cbs));

  net.sim.run_until(Time::milliseconds(99));
  EXPECT_FALSE(client_established);  // SYN-ACK arrives at t = 100 ms
  net.sim.run_until(Time::milliseconds(101));
  EXPECT_TRUE(client_established);
  EXPECT_EQ(conn.state(), TcpState::kEstablished);
  net.sim.run_until(Time::milliseconds(200));
  EXPECT_TRUE(server_established);
}

TEST(TcpConnectionTest, HandshakeSeedsRttEstimate) {
  TwoHostNet net(Time::milliseconds(50));
  serve_objects(net.b, 1000);
  auto* fetch = fetch_object(net, 1000);
  net.sim.run_until(Time::milliseconds(500));
  ASSERT_TRUE(fetch->conn->srtt().has_value());
  EXPECT_NEAR(fetch->conn->srtt()->to_milliseconds(), 100.0, 5.0);
}

TEST(TcpConnectionTest, SmallObjectFetchCompletesInTwoRtts) {
  // Handshake (1 RTT) + request/response (1 RTT): ~200 ms end to end.
  TwoHostNet net(Time::milliseconds(50));
  serve_objects(net.b, 10'000);
  auto* fetch = fetch_object(net, 10'000);
  net.sim.run_until(Time::seconds(2));
  ASSERT_TRUE(fetch->completed_at.has_value());
  EXPECT_NEAR(fetch->completed_at->to_milliseconds(), 200.0, 20.0);
}

TEST(TcpConnectionTest, ByteAccountingMatches) {
  TwoHostNet net(Time::milliseconds(10));
  serve_objects(net.b, 5'000);
  auto* fetch = fetch_object(net, 5'000);
  net.sim.run_until(Time::seconds(2));
  ASSERT_TRUE(fetch->completed_at.has_value());
  EXPECT_EQ(fetch->conn->bytes_received(), 5'000u);
  EXPECT_EQ(fetch->conn->bytes_acked(), 200u);  // the request
}

TEST(TcpConnectionTest, ConnectionReuseServesSecondRequest) {
  TwoHostNet net(Time::milliseconds(50));
  serve_objects(net.b, 10'000);
  auto* fetch = fetch_object(net, 10'000);
  net.sim.run_until(Time::seconds(2));
  ASSERT_TRUE(fetch->completed_at.has_value());

  // Second request on the same (idle) connection: no handshake this time.
  fetch->received = 0;
  fetch->completed_at.reset();
  const Time start = net.sim.now();
  fetch->conn->send(200);
  net.sim.run_until(start + Time::seconds(2));
  ASSERT_TRUE(fetch->completed_at.has_value());
  EXPECT_NEAR((*fetch->completed_at - start).to_milliseconds(), 100.0, 20.0);
}

// ------------------------------------------------------------- initcwnd

TEST(TcpConnectionTest, LargerInitcwndSavesRoundTrips) {
  // 50 KB = 35 segments. IW10 needs 3 data round trips (10/20/5), IW50
  // needs 1. Both sides must allow the burst (initrwnd raised on server).
  const std::uint64_t object = 50'000;

  TwoHostNet slow(Time::milliseconds(50));
  serve_objects(slow.b, object);
  auto* f1 = fetch_object(slow, object);
  slow.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(f1->completed_at.has_value());

  TwoHostNet fast(Time::milliseconds(50));
  // Riptide-style route programming on the data sender (b), plus a big
  // enough advertised receive window on the requester (a).
  fast.b.routing_table().add_or_replace(
      net::Prefix::host(fast.a.address()),
      host::RouteMetrics{50, 100});
  fast.a.default_config().initial_rwnd_segments = 100;
  serve_objects(fast.b, object);
  auto* f2 = fetch_object(fast, object);
  fast.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(f2->completed_at.has_value());

  // IW10: handshake + ~3 RTT = ~400 ms. IW50: handshake + 1 RTT = ~200 ms.
  EXPECT_GT(f1->completed_at->to_milliseconds(), 350.0);
  EXPECT_LT(f2->completed_at->to_milliseconds(), 250.0);
}

TEST(TcpConnectionTest, SmallPeerInitrwndLimitsFirstBurst) {
  // The §III-C hazard: a big initcwnd is useless if the peer's initial
  // receive window can't absorb the burst.
  const std::uint64_t object = 50'000;
  TwoHostNet net(Time::milliseconds(50));
  net.b.routing_table().add_or_replace(
      net::Prefix::host(net.a.address()),
      host::RouteMetrics{50, 100});
  net.a.default_config().initial_rwnd_segments = 10;  // tiny receive window
  serve_objects(net.b, object);
  auto* fetch = fetch_object(net, object);
  net.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(fetch->completed_at.has_value());
  // Flow control forces extra round trips despite initcwnd 50.
  EXPECT_GT(fetch->completed_at->to_milliseconds(), 280.0);
}

TEST(TcpConnectionTest, AcceptedConnectionUsesRouteInitcwnd) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.routing_table().add_or_replace(
      net::Prefix::host(net.a.address()),
      host::RouteMetrics{42, 0});
  TcpConnection* accepted = nullptr;
  net.b.listen(kPort, [&](TcpConnection& conn) { accepted = &conn; });
  fetch_object(net, 1000);
  net.sim.run_until(Time::milliseconds(100));
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->config().initial_cwnd_segments, 42u);
  EXPECT_EQ(accepted->cwnd_segments(), 42u);
}

// ----------------------------------------------------------- loss recovery

TEST(TcpConnectionTest, FastRetransmitRecoversSingleLoss) {
  TwoHostNet net(Time::milliseconds(50));
  serve_objects(net.b, 100'000);
  net.filter_ba.drop_next_data_packets(1);  // first data segment b -> a
  auto* fetch = fetch_object(net, 100'000);
  net.sim.run_until(Time::seconds(10));
  ASSERT_TRUE(fetch->completed_at.has_value());
  EXPECT_EQ(fetch->received, 100'000u);

  // The server-side connection performed a fast retransmit, not an RTO.
  const auto infos = net.b.socket_stats();
  ASSERT_EQ(infos.size(), 1u);
  auto* server_conn = net.b.find_connection(infos[0].tuple);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_GE(server_conn->stats().fast_retransmits, 1u);
  EXPECT_EQ(server_conn->stats().timeouts, 0u);
}

TEST(TcpConnectionTest, RtoRecoversFullFlightLoss) {
  TwoHostNet net(Time::milliseconds(50));
  serve_objects(net.b, 30'000);
  net.filter_ba.drop_next_data_packets(10);  // entire first window
  auto* fetch = fetch_object(net, 30'000);
  net.sim.run_until(Time::seconds(20));
  ASSERT_TRUE(fetch->completed_at.has_value());
  EXPECT_EQ(fetch->received, 30'000u);
}

TEST(TcpConnectionTest, SynLossRetriesAndConnects) {
  TwoHostNet net(Time::milliseconds(10));
  int syns_dropped = 0;
  net.filter_ab.set_drop_predicate([&](const net::Packet& p) {
    const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
    if (seg != nullptr && seg->syn && syns_dropped < 1) {
      ++syns_dropped;
      return true;
    }
    return false;
  });
  serve_objects(net.b, 1000);
  auto* fetch = fetch_object(net, 1000);
  net.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(fetch->completed_at.has_value());
  EXPECT_EQ(syns_dropped, 1);
  // Retried after the 1 s initial RTO.
  EXPECT_GT(fetch->completed_at->to_milliseconds(), 1000.0);
}

TEST(TcpConnectionTest, SynAckLossHandledByClientSynRetry) {
  TwoHostNet net(Time::milliseconds(10));
  int dropped = 0;
  net.filter_ba.set_drop_predicate([&](const net::Packet& p) {
    const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
    if (seg != nullptr && seg->syn && seg->ack_flag && dropped < 1) {
      ++dropped;
      return true;
    }
    return false;
  });
  serve_objects(net.b, 1000);
  auto* fetch = fetch_object(net, 1000);
  net.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(fetch->completed_at.has_value());
  EXPECT_EQ(dropped, 1);
}

TEST(TcpConnectionTest, UnreachableServiceGetsReset) {
  TwoHostNet net(Time::milliseconds(10));
  auto* fetch = fetch_object(net, 1000, /*port=*/12345);  // nobody listens
  net.sim.run_until(Time::seconds(1));
  EXPECT_TRUE(fetch->closed);
  EXPECT_TRUE(fetch->reset);
  EXPECT_EQ(net.b.stats().rst_sent, 1u);
}

TEST(TcpConnectionTest, GivesUpAfterMaxSynRetries) {
  TwoHostNet net(Time::milliseconds(10));
  net.filter_ab.set_drop_predicate([](const net::Packet&) { return true; });
  auto* fetch = fetch_object(net, 1000);
  // SYN timeouts back off 1, 2, 4, ..., 64 s from the 1 s initial RTO. The
  // seventh, 127 s in, exceeds kMaxSynRetries (6) and gives up.
  static_assert(TcpConnection::kMaxSynRetries == 6);
  net.sim.run_until(Time::seconds(126));
  EXPECT_FALSE(fetch->closed);
  net.sim.run_until(Time::seconds(128));
  EXPECT_TRUE(fetch->closed);
  EXPECT_TRUE(fetch->reset);
}

// ------------------------------------------------------------------ close

TEST(TcpConnectionTest, GracefulCloseReachesClosedOnBothSides) {
  TwoHostNet net(Time::milliseconds(10));
  serve_objects(net.b, 1000);
  auto* fetch = fetch_object(net, 1000);
  net.sim.run_until(Time::seconds(1));
  ASSERT_TRUE(fetch->completed_at.has_value());

  fetch->conn->close();
  net.sim.run_until(net.sim.now() + Time::seconds(10));  // past TIME_WAIT
  EXPECT_TRUE(fetch->closed);
  EXPECT_FALSE(fetch->reset);
  EXPECT_EQ(net.a.connection_count(), 0u);
  EXPECT_EQ(net.b.connection_count(), 0u);
}

TEST(TcpConnectionTest, CloseWithPendingDataDrainsFirst) {
  TwoHostNet net(Time::milliseconds(50));
  std::uint64_t server_received = 0;
  net.b.listen(kPort, [&](TcpConnection& conn) {
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::uint64_t bytes) { server_received += bytes; };
    cbs.on_peer_closed = [&conn] { conn.close(); };
    conn.set_callbacks(std::move(cbs));
  });

  TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), kPort, std::move(cbs));
  net.sim.run_until(Time::milliseconds(150));
  conn.send(100'000);
  conn.close();  // FIN must wait for 100 KB to drain
  net.sim.run_until(Time::seconds(20));
  EXPECT_EQ(server_received, 100'000u);
  EXPECT_EQ(net.a.connection_count(), 0u);
}

TEST(TcpConnectionTest, SendAfterCloseThrows) {
  TwoHostNet net(Time::milliseconds(10));
  serve_objects(net.b, 1000);
  auto* fetch = fetch_object(net, 1000);
  net.sim.run_until(Time::seconds(1));
  fetch->conn->close();
  EXPECT_THROW(fetch->conn->send(100), std::logic_error);
}

TEST(TcpConnectionTest, AbortSendsRstAndTearsDownPeer) {
  TwoHostNet net(Time::milliseconds(10));
  serve_objects(net.b, 1000);
  auto* fetch = fetch_object(net, 1000);
  net.sim.run_until(Time::seconds(1));
  ASSERT_TRUE(fetch->completed_at.has_value());
  fetch->conn->abort();
  net.sim.run_until(net.sim.now() + Time::seconds(1));
  EXPECT_TRUE(fetch->closed);
  EXPECT_TRUE(fetch->reset);
  EXPECT_EQ(net.b.connection_count(), 0u);
}

TEST(TcpConnectionTest, TimeWaitStateEntered) {
  TwoHostNet net(Time::milliseconds(10));
  serve_objects(net.b, 1000);
  auto* fetch = fetch_object(net, 1000);
  net.sim.run_until(Time::seconds(1));
  fetch->conn->close();
  net.sim.run_until(Time::seconds(2));
  // Active closer should be parked in TIME_WAIT until the timer fires,
  // kTimeWait after the close handshake finished.
  EXPECT_EQ(fetch->conn->state(), TcpState::kTimeWait);
  EXPECT_FALSE(fetch->closed);
  net.sim.run_until(Time::seconds(1) + TcpConnection::kTimeWait +
                    Time::milliseconds(100));
  EXPECT_TRUE(fetch->closed);
}

// ------------------------------------------------------------ idle restart

TEST(TcpConnectionTest, IdleRestartCollapsesWindowToInitial) {
  TwoHostNet net(Time::milliseconds(50));
  serve_objects(net.b, 200'000);
  auto* fetch = fetch_object(net, 200'000);
  net.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(fetch->completed_at.has_value());

  const auto infos = net.b.socket_stats();
  ASSERT_EQ(infos.size(), 1u);
  auto* server_conn = net.b.find_connection(infos[0].tuple);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_GT(server_conn->cwnd_segments(), 20u);  // grew during transfer

  // Idle for far longer than the RTO, then transfer again: RFC 2861.
  net.sim.run_until(net.sim.now() + Time::seconds(30));
  fetch->received = 0;
  fetch->completed_at.reset();
  fetch->conn->send(200);
  net.sim.run_until(net.sim.now() + Time::milliseconds(120));
  // Mid-transfer the server window restarted from its initial value.
  EXPECT_LE(server_conn->cwnd_segments(), 20u);
}

TEST(TcpConnectionTest, IdleRestartDisabledKeepsWindow) {
  tcp::TcpConfig config;
  config.slow_start_after_idle = false;
  TwoHostNet net(Time::milliseconds(50), 1e9, config);
  serve_objects(net.b, 200'000);
  auto* fetch = fetch_object(net, 200'000);
  net.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(fetch->completed_at.has_value());

  const auto infos = net.b.socket_stats();
  auto* server_conn = net.b.find_connection(infos.at(0).tuple);
  const auto grown = server_conn->cwnd_segments();
  net.sim.run_until(net.sim.now() + Time::seconds(30));
  fetch->conn->send(200);
  net.sim.run_until(net.sim.now() + Time::milliseconds(60));
  EXPECT_EQ(server_conn->cwnd_segments(), grown);
}

// ------------------------------------------------------------ throughput

TEST(TcpConnectionTest, LargeTransferDeliversExactly) {
  TwoHostNet net(Time::milliseconds(20));
  serve_objects(net.b, 2'000'000);
  auto* fetch = fetch_object(net, 2'000'000);
  net.sim.run_until(Time::seconds(30));
  ASSERT_TRUE(fetch->completed_at.has_value());
  EXPECT_EQ(fetch->received, 2'000'000u);
}

TEST(TcpConnectionTest, BidirectionalTransfersCoexist) {
  TwoHostNet net(Time::milliseconds(20));
  std::uint64_t b_received = 0;
  net.b.listen(kPort, [&](TcpConnection& conn) {
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::uint64_t bytes) { b_received += bytes; };
    conn.set_callbacks(std::move(cbs));
  });
  std::uint64_t a_received = 0;
  net.a.listen(kPort, [&](TcpConnection& conn) {
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::uint64_t bytes) { a_received += bytes; };
    conn.set_callbacks(std::move(cbs));
  });

  TcpConnection::Callbacks cbs1;
  auto& c1 = net.a.connect(net.b.address(), kPort, std::move(cbs1));
  TcpConnection::Callbacks cbs2;
  auto& c2 = net.b.connect(net.a.address(), kPort, std::move(cbs2));
  net.sim.run_until(Time::milliseconds(100));
  c1.send(100'000);
  c2.send(70'000);
  net.sim.run_until(Time::seconds(10));
  EXPECT_EQ(b_received, 100'000u);
  EXPECT_EQ(a_received, 70'000u);
}

TEST(TcpConnectionTest, ManyParallelConnectionsBetweenSameHosts) {
  TwoHostNet net(Time::milliseconds(10));
  std::uint64_t total = 0;
  net.b.listen(kPort, [&](TcpConnection& conn) {
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::uint64_t bytes) { total += bytes; };
    conn.set_callbacks(std::move(cbs));
  });
  std::vector<TcpConnection*> conns;
  for (int i = 0; i < 10; ++i) {
    TcpConnection::Callbacks cbs;
    conns.push_back(&net.a.connect(net.b.address(), kPort, std::move(cbs)));
  }
  net.sim.run_until(Time::milliseconds(100));
  for (auto* conn : conns) conn->send(10'000);
  net.sim.run_until(Time::seconds(5));
  EXPECT_EQ(total, 100'000u);
  EXPECT_EQ(net.a.connection_count(), 10u);
}

TEST(TcpConnectionTest, SegmentsSentCountedAndNoSpuriousRetransmits) {
  TwoHostNet net(Time::milliseconds(10));
  serve_objects(net.b, 50'000);
  auto* fetch = fetch_object(net, 50'000);
  net.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(fetch->completed_at.has_value());
  const auto infos = net.b.socket_stats();
  auto* server_conn = net.b.find_connection(infos.at(0).tuple);
  EXPECT_EQ(server_conn->stats().retransmissions, 0u);
  EXPECT_EQ(server_conn->stats().timeouts, 0u);
  // 50 KB = 35 full segments plus handshake/ACK traffic.
  EXPECT_GE(server_conn->stats().segments_sent, 35u);
}

}  // namespace
}  // namespace riptide::tcp
