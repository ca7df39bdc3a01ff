// Hybrid-fidelity cross-traffic: the fluid model (flow::FlowLevelLoad) and
// the net::Link background-load coupling it drives. The experiment-level
// wiring (fingerprints with flow_traffic on) lives in determinism_test.cc.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "flow/flow_traffic.h"
#include "net/link.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "stats/perf.h"

namespace riptide {
namespace {

using sim::Time;

struct Collector : net::PacketSink {
  std::vector<net::Packet> received;
  void receive(const net::Packet& packet) override {
    received.push_back(packet);
  }
};

// -- Link background load --

TEST(LinkBackgroundLoadTest, BackgroundLoadSlowsSerialization) {
  sim::Simulator sim;
  Collector sink;
  net::Link::Config cfg;
  cfg.rate_bps = 1e9;
  net::Link link(sim, cfg, sink);

  const Time clean = link.transmission_time(1500);
  link.set_background_load(0.5e9, 0);  // half the pipe is fluid
  const Time loaded = link.transmission_time(1500);
  EXPECT_EQ(loaded, 2 * clean);

  // Saturating aggregate: floored at 1% residual, not infinite.
  link.set_background_load(2e9, 0);
  EXPECT_EQ(link.transmission_time(1500), 100 * clean);

  // Clearing restores the bit-identical clean path.
  link.set_background_load(0.0, 0);
  EXPECT_EQ(link.transmission_time(1500), clean);
}

TEST(LinkBackgroundLoadTest, BackgroundQueueShrinksBuffer) {
  sim::Simulator sim;
  Collector sink;
  net::Link::Config cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us: packets serialize slowly
  cfg.queue_packets = 4;
  net::Link link(sim, cfg, sink);

  link.set_background_load(0.0, 3);  // fluid occupies 3 of 4 slots
  net::Packet packet;
  packet.size_bytes = 1000;
  for (int i = 0; i < 3; ++i) link.receive(packet);
  EXPECT_EQ(link.stats().drops_queue_full, 2u)
      << "only one residual slot should admit";

  // Occupancy beyond the buffer still leaves one usable slot.
  sim.run();
  link.set_background_load(0.0, 99);
  link.receive(packet);
  EXPECT_EQ(link.stats().drops_queue_full, 2u);
}

// -- Flow-level cross traffic --

TEST(FlowLevelLoadTest, AppliesAndReleasesLoad) {
  sim::Simulator sim;
  Collector sink;
  net::Link::Config cfg;
  cfg.rate_bps = 10e9;
  net::Link link(sim, cfg, sink);
  sim::Rng rng(7);

  flow::FlowTrafficConfig fcfg;
  fcfg.flows_per_second = 50.0;
  fcfg.mean_flow_bytes = 100e3;
  flow::FlowLevelLoad load(sim, link, fcfg, rng);
  load.start();

  sim.run_until(Time::seconds(5));
  EXPECT_GT(load.flows_started(), 100u);
  EXPECT_GT(load.flows_completed(), 0u);
  EXPECT_LE(load.offered_bps(),
            flow::FlowLevelLoad::kMaxUtilization * cfg.rate_bps + 1.0);
  EXPECT_EQ(load.flows_started() - load.flows_completed(),
            load.active_flows());
}

TEST(FlowLevelLoadTest, EventCountFarBelowPacketLevel) {
  // The headline claim: ~2 events per background flow (arrival +
  // completion), plus timer rearms folded into those, versus ~40 for a
  // packet-level TCP transfer of the same size.
  sim::Simulator sim;
  Collector sink;
  net::Link::Config cfg;
  cfg.rate_bps = 10e9;
  net::Link link(sim, cfg, sink);
  sim::Rng rng(11);

  flow::FlowTrafficConfig fcfg;
  fcfg.flows_per_second = 1000.0;
  flow::FlowLevelLoad load(sim, link, fcfg, rng);
  load.start();
  const std::uint64_t events = sim.run_until(Time::seconds(10));
  ASSERT_GT(load.flows_started(), 5000u);
  EXPECT_LT(static_cast<double>(events) /
                static_cast<double>(load.flows_started()),
            2.5);
}

TEST(FlowLevelLoadTest, CountsFlowsInPerf) {
  const perf::Counters before = perf::local();
  sim::Simulator sim;
  Collector sink;
  net::Link link(sim, net::Link::Config{}, sink);
  sim::Rng rng(3);
  flow::FlowTrafficConfig fcfg;
  fcfg.flows_per_second = 100.0;
  flow::FlowLevelLoad load(sim, link, fcfg, rng);
  load.start();
  sim.run_until(Time::seconds(2));
  const perf::Counters delta = perf::local().delta_since(before);
  EXPECT_EQ(delta.flow_level_flows, load.flows_started());
}

TEST(FlowLevelLoadTest, RejectsBadConfig) {
  sim::Simulator sim;
  Collector sink;
  net::Link link(sim, net::Link::Config{}, sink);
  sim::Rng rng(1);
  flow::FlowTrafficConfig bad;
  bad.pareto_alpha = 0.9;  // no finite mean
  EXPECT_THROW(flow::FlowLevelLoad(sim, link, bad, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace riptide
