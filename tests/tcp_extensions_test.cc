// Tests for the optional TCP features: packet pacing and HyStart.

#include <gtest/gtest.h>

#include "tcp/cubic.h"
#include "test_util.h"

namespace riptide::tcp {
namespace {

using riptide::test::TwoHostNet;
using sim::Time;

// ----------------------------------------------------------------- pacing

// One-way transfer helper: a -> b, returns bytes received at b.
std::uint64_t push(TwoHostNet& net, std::uint64_t bytes, Time deadline) {
  std::uint64_t received = 0;
  net.b.listen(80, [&](TcpConnection& conn) {
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::uint64_t n) { received += n; };
    cbs.on_peer_closed = [&conn] { conn.close(); };
    conn.set_callbacks(std::move(cbs));
  });
  TcpConnection::Callbacks cbs;
  auto& conn = net.a.connect(net.b.address(), 80, std::move(cbs));
  net.sim.run_until(Time::milliseconds(200));
  conn.send(bytes);
  conn.close();
  net.sim.run_until(deadline);
  return received;
}

TcpConfig big_window_config(bool pacing) {
  TcpConfig config;
  config.initial_cwnd_segments = 100;
  config.initial_rwnd_segments = 200;
  config.pacing = pacing;
  return config;
}

TEST(PacingTest, PacedTransferDeliversExactly) {
  TwoHostNet net(Time::milliseconds(50), 1e9, big_window_config(true));
  EXPECT_EQ(push(net, 500'000, Time::seconds(30)), 500'000u);
}

TEST(PacingTest, UnpacedBigWindowOverflowsShallowQueue) {
  // 100-segment burst into a 20-packet drop-tail queue: heavy loss.
  TwoHostNet net(Time::milliseconds(50), 1e9, big_window_config(false),
                 /*queue_packets=*/20);
  const auto received = push(net, 100'000, Time::seconds(30));
  EXPECT_EQ(received, 100'000u);  // recovery still delivers everything
  EXPECT_GT(net.link_ab.stats().drops_queue_full, 10u);
}

TEST(PacingTest, PacingEliminatesBurstDrops) {
  TwoHostNet net(Time::milliseconds(50), 1e9, big_window_config(true),
                 /*queue_packets=*/20);
  const auto received = push(net, 100'000, Time::seconds(30));
  EXPECT_EQ(received, 100'000u);
  // Segments leave at gain * cwnd / srtt, so the shallow queue never sees
  // the whole window at once.
  EXPECT_EQ(net.link_ab.stats().drops_queue_full, 0u);
}

TEST(PacingTest, PacingCostsAtMostOneRttOnCleanPath) {
  // Completion with pacing (gain 2: window spread over srtt/2) should stay
  // close to the unpaced time on an uncongested path.
  TwoHostNet unpaced(Time::milliseconds(50), 1e9, big_window_config(false));
  std::uint64_t r1 = 0;
  Time t1;
  {
    unpaced.b.listen(80, [&](TcpConnection& conn) {
      TcpConnection::Callbacks cbs;
      cbs.on_data = [&](std::uint64_t n) {
        r1 += n;
        if (r1 >= 100'000) t1 = unpaced.sim.now();
      };
      conn.set_callbacks(std::move(cbs));
    });
    TcpConnection::Callbacks cbs;
    auto& conn = unpaced.a.connect(unpaced.b.address(), 80, std::move(cbs));
    unpaced.sim.run_until(Time::milliseconds(200));
    conn.send(100'000);
    unpaced.sim.run_until(Time::seconds(10));
  }

  TwoHostNet paced(Time::milliseconds(50), 1e9, big_window_config(true));
  std::uint64_t r2 = 0;
  Time t2;
  {
    paced.b.listen(80, [&](TcpConnection& conn) {
      TcpConnection::Callbacks cbs;
      cbs.on_data = [&](std::uint64_t n) {
        r2 += n;
        if (r2 >= 100'000) t2 = paced.sim.now();
      };
      conn.set_callbacks(std::move(cbs));
    });
    TcpConnection::Callbacks cbs;
    auto& conn = paced.a.connect(paced.b.address(), 80, std::move(cbs));
    paced.sim.run_until(Time::milliseconds(200));
    conn.send(100'000);
    paced.sim.run_until(Time::seconds(10));
  }
  ASSERT_EQ(r1, 100'000u);
  ASSERT_EQ(r2, 100'000u);
  // Pacing with gain 2 adds at most ~srtt/2 to a single-flight transfer.
  EXPECT_LT((t2 - t1).to_milliseconds(), 80.0);
}

TEST(PacingTest, PacingWorksUnderLoss) {
  auto config = big_window_config(true);
  TwoHostNet net(Time::milliseconds(20), 1e9, config);
  net.filter_ab.drop_next_data_packets(3);
  EXPECT_EQ(push(net, 300'000, Time::seconds(30)), 300'000u);
}

// ---------------------------------------------------------------- HyStart

constexpr std::uint32_t kMss = 1460;

AckEvent rtt_ack(Time now, Time rtt) {
  return AckEvent{now, kMss, 50 * kMss, rtt};
}

TEST(HystartTest, ExitsSlowStartOnDelayIncrease) {
  Cubic cc(kMss, 10 * kMss, /*hystart=*/true);
  Time now = Time::zero();
  // Round 1: flat 100 ms RTTs.
  for (int i = 0; i < 10; ++i) {
    now += Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(100)));
  }
  ASSERT_TRUE(cc.in_slow_start());
  // Rounds 2-3: RTT inflates by 60 ms (queue building).
  for (int i = 0; i < 30; ++i) {
    now += Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(160)));
  }
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(HystartTest, StaysInSlowStartOnFlatRtt) {
  Cubic cc(kMss, 10 * kMss, /*hystart=*/true);
  Time now = Time::zero();
  for (int i = 0; i < 60; ++i) {
    now += Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(100)));
  }
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(HystartTest, SmallJitterBelowEtaIgnored) {
  Cubic cc(kMss, 10 * kMss, /*hystart=*/true);
  Time now = Time::zero();
  // +-2 ms jitter is below the 4 ms minimum eta.
  for (int i = 0; i < 60; ++i) {
    now += Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(100 + (i % 2 == 0 ? 2 : 0))));
  }
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(HystartTest, DisabledByDefault) {
  Cubic cc(kMss, 10 * kMss);
  EXPECT_FALSE(cc.hystart_enabled());
  Time now = Time::zero();
  for (int i = 0; i < 40; ++i) {
    now += Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(100 + i * 10)));
  }
  EXPECT_TRUE(cc.in_slow_start());  // delay increase ignored
}

TEST(HystartTest, FactoryWiresConfigFlag) {
  TcpConfig config;
  config.congestion_control = CcAlgorithm::kCubic;
  config.hystart = true;
  auto cc = make_congestion_control(config, 10 * kMss);
  auto* cubic = dynamic_cast<Cubic*>(cc.get());
  ASSERT_NE(cubic, nullptr);
  EXPECT_TRUE(cubic->hystart_enabled());
}

}  // namespace
}  // namespace riptide::tcp
