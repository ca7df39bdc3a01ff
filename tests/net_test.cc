#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/ipv4.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/router.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace riptide::net {
namespace {

// ------------------------------------------------------------------- Ipv4

TEST(Ipv4Test, OctetConstructionAndFormatting) {
  const Ipv4Address a(10, 1, 2, 3);
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(a.value(), 0x0A010203u);
}

TEST(Ipv4Test, ParseRoundTrip) {
  const auto a = Ipv4Address::parse("192.168.0.254");
  EXPECT_EQ(a, Ipv4Address(192, 168, 0, 254));
  EXPECT_EQ(a.to_string(), "192.168.0.254");
}

TEST(Ipv4Test, ParseRejectsMalformed) {
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.256"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("hello"), std::invalid_argument);
}

TEST(Ipv4Test, Ordering) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_LT(Ipv4Address(9, 255, 255, 255), Ipv4Address(10, 0, 0, 0));
}

// ----------------------------------------------------------------- Prefix

TEST(PrefixTest, CanonicalizesHostBits) {
  const Prefix p(Ipv4Address(10, 1, 2, 3), 16);
  EXPECT_EQ(p.address(), Ipv4Address(10, 1, 0, 0));
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(PrefixTest, ContainsAddress) {
  const Prefix p(Ipv4Address(10, 1, 0, 0), 16);
  EXPECT_TRUE(p.contains(Ipv4Address(10, 1, 200, 7)));
  EXPECT_FALSE(p.contains(Ipv4Address(10, 2, 0, 1)));
}

TEST(PrefixTest, ZeroLengthContainsEverything) {
  const Prefix any(Ipv4Address(0), 0);
  EXPECT_TRUE(any.contains(Ipv4Address(255, 255, 255, 255)));
  EXPECT_TRUE(any.contains(Ipv4Address(0)));
  EXPECT_EQ(any.mask(), 0u);
}

TEST(PrefixTest, HostPrefixMatchesOnlyItself) {
  const auto p = Prefix::host(Ipv4Address(10, 0, 0, 5));
  EXPECT_EQ(p.length(), 32);
  EXPECT_TRUE(p.contains(Ipv4Address(10, 0, 0, 5)));
  EXPECT_FALSE(p.contains(Ipv4Address(10, 0, 0, 6)));
}

TEST(PrefixTest, ContainsPrefix) {
  const Prefix wide(Ipv4Address(10, 0, 0, 0), 8);
  const Prefix narrow(Ipv4Address(10, 1, 0, 0), 16);
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
}

TEST(PrefixTest, ParseAndErrors) {
  const auto p = Prefix::parse("172.16.0.0/12");
  EXPECT_EQ(p.length(), 12);
  EXPECT_TRUE(p.contains(Ipv4Address(172, 20, 1, 1)));
  EXPECT_THROW(Prefix::parse("10.0.0.0"), std::invalid_argument);
  EXPECT_THROW(Prefix(Ipv4Address(0), 33), std::invalid_argument);
  EXPECT_THROW(Prefix(Ipv4Address(0), -1), std::invalid_argument);
}

TEST(PrefixTest, EqualityAfterCanonicalization) {
  EXPECT_EQ(Prefix(Ipv4Address(10, 1, 2, 3), 16),
            Prefix(Ipv4Address(10, 1, 9, 9), 16));
}

// ------------------------------------------------------------------- Link

class CollectingSink : public PacketSink {
 public:
  void receive(const Packet& packet) override {
    packets.push_back(packet);
    arrival_times.push_back(sim_ != nullptr ? sim_->now() : sim::Time::zero());
  }
  void bind(sim::Simulator& sim) { sim_ = &sim; }

  std::vector<Packet> packets;
  std::vector<sim::Time> arrival_times;

 private:
  sim::Simulator* sim_ = nullptr;
};

Packet make_packet(std::uint32_t bytes) {
  Packet p;
  p.src = Ipv4Address(10, 0, 0, 1);
  p.dst = Ipv4Address(10, 0, 0, 2);
  p.size_bytes = bytes;
  return p;
}

TEST(LinkTest, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator sim;
  CollectingSink sink;
  sink.bind(sim);
  // 1 Mbps, 10 ms propagation: 1250-byte packet serializes in 10 ms.
  Link link(sim, {1e6, sim::Time::milliseconds(10), 16, 0.0, "l"}, sink);
  link.receive(make_packet(1250));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], sim::Time::milliseconds(20));
}

TEST(LinkTest, BackToBackPacketsQueueBehindSerialization) {
  sim::Simulator sim;
  CollectingSink sink;
  sink.bind(sim);
  Link link(sim, {1e6, sim::Time::zero(), 16, 0.0, "l"}, sink);
  link.receive(make_packet(1250));  // 10 ms each
  link.receive(make_packet(1250));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.arrival_times[0], sim::Time::milliseconds(10));
  EXPECT_EQ(sink.arrival_times[1], sim::Time::milliseconds(20));
}

TEST(LinkTest, DropsWhenQueueFull) {
  sim::Simulator sim;
  CollectingSink sink;
  sink.bind(sim);
  Link link(sim, {1e6, sim::Time::zero(), 2, 0.0, "l"}, sink);
  for (int i = 0; i < 5; ++i) link.receive(make_packet(1250));
  sim.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(link.stats().drops_queue_full, 3u);
  EXPECT_EQ(link.stats().packets_delivered, 2u);
  EXPECT_EQ(link.stats().packets_sent, 5u);
}

TEST(LinkTest, QueueDrainsOverTime) {
  sim::Simulator sim;
  CollectingSink sink;
  sink.bind(sim);
  Link link(sim, {1e6, sim::Time::zero(), 1, 0.0, "l"}, sink);
  link.receive(make_packet(1250));
  sim.run();
  link.receive(make_packet(1250));  // queue had drained; admitted
  sim.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(link.stats().drops_queue_full, 0u);
}

TEST(LinkTest, RandomLossDropsApproximatelyAtRate) {
  sim::Simulator sim;
  CollectingSink sink;
  sink.bind(sim);
  sim::Rng rng(1);
  Link link(sim, {1e9, sim::Time::zero(), 100000, 0.1, "l"}, sink, &rng);
  const int n = 10000;
  for (int i = 0; i < n; ++i) link.receive(make_packet(100));
  sim.run();
  const double loss_rate =
      static_cast<double>(link.stats().drops_random_loss) / n;
  EXPECT_NEAR(loss_rate, 0.1, 0.02);
}

TEST(LinkTest, LossRequiresRng) {
  sim::Simulator sim;
  CollectingSink sink;
  EXPECT_THROW(
      Link(sim, {1e6, sim::Time::zero(), 16, 0.5, "l"}, sink, nullptr),
      std::invalid_argument);
}

TEST(LinkTest, RejectsLossOutsideUnitInterval) {
  sim::Simulator sim;
  CollectingSink sink;
  sim::Rng rng(1);
  for (const double loss : {-0.1, 1.5, std::nan("")}) {
    EXPECT_THROW(
        Link(sim, {1e6, sim::Time::zero(), 16, loss, "l"}, sink, &rng),
        std::invalid_argument)
        << loss;
  }
}

TEST(LinkTest, RejectsNonPositiveRate) {
  sim::Simulator sim;
  CollectingSink sink;
  EXPECT_THROW(Link(sim, {0.0, sim::Time::zero(), 16, 0.0, "l"}, sink),
               std::invalid_argument);
}

TEST(LinkTest, TransmissionTimeScalesWithSize) {
  sim::Simulator sim;
  CollectingSink sink;
  Link link(sim, {8e6, sim::Time::zero(), 16, 0.0, "l"}, sink);
  EXPECT_EQ(link.transmission_time(1000), sim::Time::milliseconds(1));
  EXPECT_EQ(link.transmission_time(2000), sim::Time::milliseconds(2));
}

TEST(LinkTest, BytesDeliveredAccumulates) {
  sim::Simulator sim;
  CollectingSink sink;
  Link link(sim, {1e9, sim::Time::zero(), 16, 0.0, "l"}, sink);
  link.receive(make_packet(100));
  link.receive(make_packet(200));
  sim.run();
  EXPECT_EQ(link.stats().bytes_delivered, 300u);
}

// ----------------------------------------------------------------- Router

TEST(RouterTest, LongestPrefixMatchWins) {
  Router router("r");
  CollectingSink wide;
  CollectingSink narrow;
  router.add_route(Prefix(Ipv4Address(10, 0, 0, 0), 8), wide);
  router.add_route(Prefix(Ipv4Address(10, 1, 0, 0), 16), narrow);

  router.receive(make_packet(100));  // dst 10.0.0.2 -> /8
  Packet p = make_packet(100);
  p.dst = Ipv4Address(10, 1, 5, 5);
  router.receive(p);  // -> /16

  EXPECT_EQ(wide.packets.size(), 1u);
  EXPECT_EQ(narrow.packets.size(), 1u);
  EXPECT_EQ(router.forwarded(), 2u);
}

TEST(RouterTest, LongestMatchWinsWhateverTheInsertionOrder) {
  // add_route keeps the table longest-first as routes arrive in any
  // order: at the back, at the front and in between.
  Router router("r");
  CollectingSink any, wide, narrow, narrowest;
  router.add_route(Prefix(Ipv4Address(10, 1, 0, 0), 16), narrow);
  router.add_route(Prefix(Ipv4Address(0), 0), any);
  router.add_route(Prefix(Ipv4Address(10, 1, 2, 0), 24), narrowest);
  router.add_route(Prefix(Ipv4Address(10, 0, 0, 0), 8), wide);
  EXPECT_EQ(router.route_count(), 4u);
  EXPECT_EQ(router.lookup(Ipv4Address(10, 1, 2, 3)), &narrowest);
  EXPECT_EQ(router.lookup(Ipv4Address(10, 1, 9, 9)), &narrow);
  EXPECT_EQ(router.lookup(Ipv4Address(10, 9, 9, 9)), &wide);
  EXPECT_EQ(router.lookup(Ipv4Address(11, 0, 0, 1)), &any);
}

TEST(RouterTest, NoRouteDrops) {
  Router router("r");
  Packet p = make_packet(100);
  p.dst = Ipv4Address(192, 168, 1, 1);
  router.receive(p);
  EXPECT_EQ(router.no_route_drops(), 1u);
  EXPECT_EQ(router.forwarded(), 0u);
}

TEST(RouterTest, AddRouteReplacesExisting) {
  Router router("r");
  CollectingSink first;
  CollectingSink second;
  const Prefix p(Ipv4Address(10, 0, 0, 0), 8);
  router.add_route(p, first);
  router.add_route(p, second);
  EXPECT_EQ(router.route_count(), 1u);
  router.receive(make_packet(100));
  EXPECT_TRUE(first.packets.empty());
  EXPECT_EQ(second.packets.size(), 1u);
}

TEST(RouterTest, RemoveRoute) {
  Router router("r");
  CollectingSink sink;
  const Prefix p(Ipv4Address(10, 0, 0, 0), 8);
  router.add_route(p, sink);
  EXPECT_TRUE(router.remove_route(p));
  EXPECT_FALSE(router.remove_route(p));
  router.receive(make_packet(100));
  EXPECT_EQ(router.no_route_drops(), 1u);
}

TEST(RouterTest, DefaultRouteAsFallback) {
  Router router("r");
  CollectingSink specific;
  CollectingSink fallback;
  router.add_route(Prefix(Ipv4Address(10, 0, 0, 0), 8), specific);
  router.add_route(Prefix(Ipv4Address(0), 0), fallback);
  Packet p = make_packet(100);
  p.dst = Ipv4Address(8, 8, 8, 8);
  router.receive(p);
  EXPECT_EQ(fallback.packets.size(), 1u);
  EXPECT_TRUE(specific.packets.empty());
}

TEST(RouterTest, LookupReturnsNullWithoutRoutes) {
  Router router("r");
  EXPECT_EQ(router.lookup(Ipv4Address(1, 2, 3, 4)), nullptr);
}

}  // namespace
}  // namespace riptide::net
