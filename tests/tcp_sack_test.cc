// SACK-enhanced loss recovery tests: receiver-side block generation,
// sender-side scoreboard retransmission, and post-RTO hole skipping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tcp/receive_tracker.h"
#include "test_util.h"

namespace riptide::tcp {
namespace {

using riptide::test::TwoHostNet;
using sim::Time;

TcpConfig sack_config() {
  TcpConfig config;
  config.sack = true;
  return config;
}

// Server pushing `bytes` to the client over a lossy-able path.
struct PushWorld {
  explicit PushWorld(TcpConfig config)
      : net(Time::milliseconds(40), 1e9, config) {
    net.b.listen(80, [this](TcpConnection& conn) {
      server_conn = &conn;
      TcpConnection::Callbacks cbs;
      cbs.on_peer_closed = [&conn] { conn.close(); };
      conn.set_callbacks(std::move(cbs));
    });
    TcpConnection::Callbacks cbs;
    cbs.on_data = [this](std::uint64_t n) { received += n; };
    client_conn = &net.a.connect(net.b.address(), 80, std::move(cbs));
    net.sim.run_until(Time::milliseconds(150));
  }

  void push_from_server(std::uint64_t bytes) {
    server_conn->send(bytes);
  }

  TwoHostNet net;
  TcpConnection* client_conn = nullptr;
  TcpConnection* server_conn = nullptr;
  std::uint64_t received = 0;
};

using Intervals = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Intervals intervals_of(const ReceiveTracker& t, std::size_t max_intervals) {
  Intervals out;
  t.fill_intervals(out, max_intervals);
  return out;
}

TEST(ReceiveTrackerSackTest, IntervalsExposedInOrder) {
  ReceiveTracker t(0);
  t.on_segment(100, 200);
  t.on_segment(400, 500);
  t.on_segment(700, 800);
  const Intervals blocks = intervals_of(t, 2);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].first, 100u);
  EXPECT_EQ(blocks[0].second, 200u);
  EXPECT_EQ(blocks[1].first, 400u);
  EXPECT_EQ(blocks[1].second, 500u);
  EXPECT_EQ(intervals_of(t, 10).size(), 3u);
}

TEST(SackTest, AckCarriesBlocksOnlyWhenEnabled) {
  // With SACK on, a hole at the receiver produces blocks on the wire.
  PushWorld world(sack_config());
  int acks_with_blocks = 0;
  world.net.filter_ab.set_drop_predicate([&](const net::Packet& p) {
    const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
    if (seg != nullptr && !seg->sack_blocks.empty()) ++acks_with_blocks;
    return false;
  });
  world.net.filter_ba.drop_next_data_packets(1);
  world.push_from_server(60'000);
  world.net.sim.run_until(Time::seconds(5));
  EXPECT_EQ(world.received, 60'000u);
  EXPECT_GT(acks_with_blocks, 0);
}

TEST(SackTest, NoBlocksWhenDisabled) {
  PushWorld world(TcpConfig{});
  int acks_with_blocks = 0;
  world.net.filter_ab.set_drop_predicate([&](const net::Packet& p) {
    const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
    if (seg != nullptr && !seg->sack_blocks.empty()) ++acks_with_blocks;
    return false;
  });
  world.net.filter_ba.drop_next_data_packets(1);
  world.push_from_server(60'000);
  world.net.sim.run_until(Time::seconds(5));
  EXPECT_EQ(world.received, 60'000u);
  EXPECT_EQ(acks_with_blocks, 0);
}

TEST(SackTest, AtMostThreeBlocksAdvertised) {
  ReceiveTracker t(0);
  for (int i = 1; i <= 6; ++i) {
    t.on_segment(static_cast<std::uint64_t>(i) * 200,
                 static_cast<std::uint64_t>(i) * 200 + 100);
  }
  EXPECT_EQ(intervals_of(t, 3).size(), 3u);
}

TEST(SackTest, FiveHolesAdvertiseTheThreeLowestRanges) {
  // The first flight loses data segments 1, 3, 5, 7 and 9, so the
  // receiver holds five out-of-order ranges: 2, 4, 6, 8 and 10 onward.
  // Its ACKs carry the three lowest; the rest never reach the wire.
  TcpConfig config = sack_config();
  config.initial_cwnd_segments = 16;
  PushWorld world(config);
  const std::uint64_t first_data_seq = 1;  // the SYN took sequence 0
  auto segment_start = [&](std::uint64_t i) {
    return first_data_seq + i * kMss;
  };
  std::vector<std::uint64_t> dropped;
  ReceiveTracker delivered(first_data_seq);
  std::size_t most_ranges = 0;
  world.net.filter_ba.set_drop_predicate([&](const net::Packet& p) {
    const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
    if (seg == nullptr || seg->payload_bytes == 0) return false;
    const std::uint64_t index = (seg->seq - first_data_seq) / kMss;
    if (index < 10 && index % 2 == 1 &&
        std::find(dropped.begin(), dropped.end(), index) == dropped.end()) {
      dropped.push_back(index);
      return true;
    }
    delivered.on_segment(seg->seq, seg->seq_end());
    most_ranges = std::max(most_ranges, delivered.out_of_order_intervals());
    return false;
  });
  Intervals last_blocks_before_repair;
  std::size_t most_blocks = 0;
  world.net.filter_ab.set_drop_predicate([&](const net::Packet& p) {
    const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
    if (seg == nullptr) return false;
    most_blocks = std::max(most_blocks, seg->sack_blocks.size());
    if (seg->ack == segment_start(1) && !seg->sack_blocks.empty()) {
      last_blocks_before_repair.assign(seg->sack_blocks.begin(),
                                       seg->sack_blocks.end());
    }
    return false;
  });
  world.push_from_server(40 * kMss);
  world.net.sim.run_until(Time::seconds(10));

  EXPECT_EQ(world.received, 40u * kMss);
  EXPECT_EQ(dropped.size(), 5u);
  EXPECT_EQ(most_ranges, 5u);
  EXPECT_EQ(most_blocks, SackBlocks::kInlineCapacity);
  EXPECT_EQ(last_blocks_before_repair,
            (Intervals{{segment_start(2), segment_start(3)},
                       {segment_start(4), segment_start(5)},
                       {segment_start(6), segment_start(7)}}));
}

TEST(SackTest, SingleLossRetransmittedExactlyOnce) {
  PushWorld world(sack_config());
  world.net.filter_ba.drop_next_data_packets(1);
  world.push_from_server(100'000);
  world.net.sim.run_until(Time::seconds(10));
  EXPECT_EQ(world.received, 100'000u);
  EXPECT_EQ(world.server_conn->stats().retransmissions, 1u);
  EXPECT_EQ(world.server_conn->stats().timeouts, 0u);
}

TEST(SackTest, ScoreboardDrainsAfterRecovery) {
  PushWorld world(sack_config());
  world.net.filter_ba.drop_next_data_packets(1);
  world.push_from_server(100'000);
  world.net.sim.run_until(Time::seconds(10));
  EXPECT_EQ(world.server_conn->sack_scoreboard_intervals(), 0u);
}

TEST(SackTest, MultipleHolesInOneWindowRecoverWithoutRto) {
  // Drop two non-adjacent segments of the same flight: plain NewReno needs
  // a partial-ACK round trip per hole; SACK retransmits the precise holes.
  PushWorld world(sack_config());
  int data_seen = 0;
  world.net.filter_ba.set_drop_predicate([&](const net::Packet& p) {
    const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
    if (seg == nullptr || seg->payload_bytes == 0) return false;
    ++data_seen;
    return data_seen == 2 || data_seen == 5;  // two holes
  });
  world.push_from_server(100'000);
  world.net.sim.run_until(Time::seconds(10));
  EXPECT_EQ(world.received, 100'000u);
  EXPECT_EQ(world.server_conn->stats().timeouts, 0u);
  EXPECT_LE(world.server_conn->stats().retransmissions, 4u);
}

TEST(SackTest, PostRtoGoBackNSkipsPeerHeldRanges) {
  // Lose a prefix of the flight but let the tail through: after the RTO
  // the sender must not resend the tail the peer already SACKed.
  PushWorld world(sack_config());
  int data_seen = 0;
  world.net.filter_ba.set_drop_predicate([&](const net::Packet& p) {
    const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
    if (seg == nullptr || seg->payload_bytes == 0) return false;
    ++data_seen;
    return data_seen <= 2;  // first two data segments lost (incl. the two
                            // fast-retransmit attempts' predecessors)
  });
  world.push_from_server(30'000);
  world.net.sim.run_until(Time::seconds(20));
  EXPECT_EQ(world.received, 30'000u);

  // 30 KB = 21 segments; two were lost. Without SACK skipping, a go-back-N
  // would resend most of the window; with it, retransmissions stay small.
  EXPECT_LE(world.server_conn->stats().retransmissions, 6u);
}

TEST(SackTest, LossyPathDeliversExactlyOnceWithSack) {
  auto config = sack_config();
  TwoHostNet net(Time::milliseconds(20), 1e9, config);
  sim::Rng loss_rng(99);
  net.filter_ba.set_drop_predicate(
      [&](const net::Packet&) { return loss_rng.bernoulli(0.03); });

  std::uint64_t received = 0;
  net.a.listen(80, [&](TcpConnection& conn) {
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::uint64_t n) { received += n; };
    conn.set_callbacks(std::move(cbs));
  });
  TcpConnection::Callbacks cbs;
  auto& conn = net.b.connect(net.a.address(), 80, std::move(cbs));
  net.sim.run_until(Time::seconds(5));
  ASSERT_TRUE(conn.established());
  conn.send(500'000);
  net.sim.run_until(Time::minutes(3));
  EXPECT_EQ(received, 500'000u);
}

TEST(SackTest, SackFasterThanNewRenoUnderMultipleLoss) {
  auto run = [](bool sack) {
    TcpConfig config;
    config.sack = sack;
    PushWorld world(config);
    int data_seen = 0;
    world.net.filter_ba.set_drop_predicate([&](const net::Packet& p) {
      const auto* seg = dynamic_cast<const Segment*>(p.payload.get());
      if (seg == nullptr || seg->payload_bytes == 0) return false;
      ++data_seen;
      return data_seen % 7 == 3 && data_seen < 60;  // periodic early losses
    });
    const Time start = world.net.sim.now();
    world.push_from_server(150'000);
    while (world.received < 150'000 &&
           world.net.sim.now() < start + Time::minutes(2)) {
      world.net.sim.run_until(world.net.sim.now() + Time::milliseconds(100));
    }
    return world.net.sim.now() - start;
  };
  const Time with_sack = run(true);
  const Time without = run(false);
  EXPECT_LE(with_sack, without);
}

}  // namespace
}  // namespace riptide::tcp
