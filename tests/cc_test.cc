// Congestion-control zoo tests (ctest label "cc"): the HyStart exit
// detectors, the token-bucket pacer's release-time arithmetic and its
// determinism across ParallelRunner thread counts, BBR-lite's delivery-rate
// model (including reordered ACK streams), and the per-route CC control
// plane (routing-table metric -> connect-time config -> policy grammar).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "cdn/experiment.h"
#include "cdn/pops.h"
#include "persist/crc32.h"
#include "policy/policy.h"
#include "runner/parallel_runner.h"
#include "runner/sweep.h"
#include "sim/simulator.h"
#include "tcp/bbr_lite.h"
#include "tcp/config.h"
#include "tcp/congestion_control.h"
#include "tcp/cubic.h"
#include "tcp/hystart.h"
#include "tcp/pacing.h"
#include "tcp/reno.h"

namespace riptide {
namespace {

using sim::Time;
using namespace riptide::tcp;

constexpr std::uint32_t kMss = 1448;

AckEvent rtt_ack(Time now, Time rtt, std::uint64_t bytes = kMss) {
  return AckEvent{now, bytes, 50 * kMss, rtt};
}

// ------------------------------------------------------------ TokenBucket

TEST(PacerTest, UnblockedUntilFirstSend) {
  TokenBucketPacer pacer;
  EXPECT_FALSE(pacer.blocked(Time::zero()));
  EXPECT_FALSE(pacer.blocked(Time::seconds(100)));
}

TEST(PacerTest, ReleaseAdvancesByBytesOverRate) {
  TokenBucketPacer pacer;
  const Time now = Time::seconds(1);
  // 14480 bytes at 1 MB/s -> 14.48 ms serialization time.
  pacer.on_send(now, 10 * kMss, 1e6);
  EXPECT_TRUE(pacer.blocked(now));
  EXPECT_EQ(pacer.release_at(), now + Time::from_seconds(10 * kMss / 1e6));
  EXPECT_FALSE(pacer.blocked(pacer.release_at()));
}

TEST(PacerTest, ConsecutiveSendsAccumulateFromRelease) {
  // Second send before the first release must extend the schedule from the
  // release point, not from `now` — the EDT property that keeps long-run
  // throughput equal to the rate.
  TokenBucketPacer pacer;
  const Time now = Time::seconds(1);
  pacer.on_send(now, kMss, 1e6);
  pacer.on_send(now, kMss, 1e6);
  EXPECT_EQ(pacer.release_at(), now + Time::from_seconds(2 * kMss / 1e6));
}

TEST(PacerTest, RateFloorAvoidsDivisionBlowup) {
  TokenBucketPacer pacer;
  pacer.on_send(Time::seconds(1), kMss, 0.0);  // rate clamps to 1 B/s
  EXPECT_TRUE(pacer.blocked(Time::seconds(2)));
}

// --------------------------------------------------------------- HyStart

TEST(HystartUnitTest, DelayIncreaseFiresAcrossRounds) {
  Hystart hs;
  const Time rtt0 = Time::milliseconds(100);
  Time now = Time::zero();
  // Round 1 at base RTT.
  for (int i = 0; i < 4; ++i) {
    now = now + Time::milliseconds(10);
    EXPECT_FALSE(hs.on_ack(rtt_ack(now, rtt0), rtt0));
  }
  // Next round: min RTT jumped by far more than eta (100/8 clamped to
  // [4, 16] -> 12.5 ms).
  now = now + rtt0 + Time::milliseconds(1);
  EXPECT_TRUE(
      hs.on_ack(rtt_ack(now, Time::milliseconds(160)), rtt0));
}

TEST(HystartUnitTest, SteadyRttNeverFires) {
  Hystart hs;
  const Time rtt0 = Time::milliseconds(100);
  Time now = Time::zero();
  for (int i = 0; i < 100; ++i) {
    now = now + Time::milliseconds(30);
    EXPECT_FALSE(hs.on_ack(rtt_ack(now, rtt0), rtt0)) << i;
  }
}

TEST(HystartUnitTest, AckTrainOffByDefault) {
  // Dense ACKs 1 ms apart at a flat RTT: an ACK-train detector would fire
  // once the train spanned half the RTT. The delay-increase detector alone
  // must stay quiet.
  Hystart hs;
  const Time rtt0 = Time::milliseconds(100);
  Time now = Time::zero();
  for (int i = 0; i < 80; ++i) {
    now = now + Time::milliseconds(1);
    EXPECT_FALSE(hs.on_ack(rtt_ack(now, rtt0), rtt0));
  }
}

TEST(HystartUnitTest, RenoComposesHystart) {
  NewReno cc(kMss, 10 * kMss, /*hystart=*/true);
  EXPECT_TRUE(cc.hystart_enabled());
  EXPECT_TRUE(cc.in_slow_start());
  Time now = Time::zero();
  for (int i = 0; i < 10; ++i) {
    now = now + Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(100)));
  }
  CcSignal signal = CcSignal::kNone;
  for (int i = 0; i < 30 && signal == CcSignal::kNone; ++i) {
    now = now + Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(160)));
    signal = cc.take_signal();
  }
  EXPECT_FALSE(cc.in_slow_start());
  EXPECT_EQ(signal, CcSignal::kHystartExit);
  EXPECT_EQ(cc.take_signal(), CcSignal::kNone);  // drained
}

TEST(HystartUnitTest, RenoHystartOffByDefault) {
  NewReno cc(kMss, 10 * kMss);
  EXPECT_FALSE(cc.hystart_enabled());
}

TEST(HystartUnitTest, CubicSignalsExitOnce) {
  Cubic cc(kMss, 10 * kMss, /*hystart=*/true);
  Time now = Time::zero();
  for (int i = 0; i < 10; ++i) {
    now = now + Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(100)));
    EXPECT_EQ(cc.take_signal(), CcSignal::kNone);
  }
  CcSignal signal = CcSignal::kNone;
  for (int i = 0; i < 30 && signal == CcSignal::kNone; ++i) {
    now = now + Time::milliseconds(12);
    cc.on_ack(rtt_ack(now, Time::milliseconds(160)));
    signal = cc.take_signal();
  }
  EXPECT_EQ(signal, CcSignal::kHystartExit);
  // Exactly once: after the exit the controller is out of slow start and
  // later ACKs carry no pending signal.
  now = now + Time::milliseconds(12);
  cc.on_ack(rtt_ack(now, Time::milliseconds(160)));
  EXPECT_EQ(cc.take_signal(), CcSignal::kNone);
}

// -------------------------------------------------------------- BBR-lite

// Drives a synthetic ACK clock: `rate` bytes/sec delivered as kMss-sized
// cumulative ACKs with a fixed RTT, for `duration` of simulated time.
void drive_acks(BbrLite& cc, Time& now, double rate, Time rtt,
                Time duration) {
  const Time gap = Time::from_seconds(kMss / rate);
  const Time until = now + duration;
  while (now < until) {
    now = now + gap;
    cc.on_ack(rtt_ack(now, rtt));
  }
}

TEST(BbrLiteTest, EstimatesDeliveryRate) {
  BbrLite cc(kMss, 10 * kMss);
  Time now = Time::zero();
  const double rate = 2e6;  // 2 MB/s
  drive_acks(cc, now, rate, Time::milliseconds(20), Time::seconds(2));
  EXPECT_GT(cc.rounds_elapsed(), 10u);
  EXPECT_NEAR(cc.bottleneck_bw_bytes_per_sec(), rate, rate * 0.15);
  ASSERT_TRUE(cc.min_rtt().has_value());
  EXPECT_EQ(*cc.min_rtt(), Time::milliseconds(20));
}

TEST(BbrLiteTest, StartupExitsOnPlateauIntoProbeBw) {
  BbrLite cc(kMss, 10 * kMss);
  Time now = Time::zero();
  EXPECT_TRUE(cc.in_slow_start());  // STARTUP maps to slow start
  drive_acks(cc, now, 1e6, Time::milliseconds(20), Time::seconds(2));
  // A constant-rate path plateaus the filter within a few rounds.
  EXPECT_FALSE(cc.in_slow_start());
  // cwnd converged near cwnd_gain * BDP (1 MB/s * 20 ms = 20 KB).
  const double bdp = 1e6 * 0.020;
  EXPECT_GT(cc.cwnd_bytes(), static_cast<std::uint64_t>(bdp));
  EXPECT_LT(cc.cwnd_bytes(), static_cast<std::uint64_t>(4 * bdp));
  EXPECT_GT(cc.pacing_rate_bytes_per_sec(), 0.5e6);
}

TEST(BbrLiteTest, ReorderingPreservesDeliveryAccounting) {
  // Reordering at the ACK level: dupACK stretches contribute nothing,
  // then one cumulative ACK restores the full byte count. The per-round
  // delivered/elapsed sample must match the in-order stream's.
  BbrLite in_order(kMss, 10 * kMss);
  BbrLite reordered(kMss, 10 * kMss);
  const Time rtt = Time::milliseconds(20);
  const double rate = 1e6;
  Time now_a = Time::zero();
  drive_acks(in_order, now_a, rate, rtt, Time::seconds(2));

  Time now_b = Time::zero();
  const Time gap = Time::from_seconds(kMss / rate);
  int burst = 0;
  const Time until = now_b + Time::seconds(2);
  while (now_b < until) {
    now_b = now_b + gap;
    // Every 8th tick, hold back 7 ACKs' worth and release them as one
    // cumulative ACK (the post-reorder catch-up).
    if (++burst % 8 == 0) {
      reordered.on_ack(rtt_ack(now_b, rtt, 7 * kMss));
    } else if (burst % 8 < 7) {
      // held back: no new bytes acked (dupACK), no RTT sample
      reordered.on_ack(AckEvent{now_b, 0, 50 * kMss, std::nullopt});
    } else {
      reordered.on_ack(rtt_ack(now_b, rtt));
    }
  }
  const double bw_in_order = in_order.bottleneck_bw_bytes_per_sec();
  const double bw_reordered = reordered.bottleneck_bw_bytes_per_sec();
  EXPECT_NEAR(bw_reordered, bw_in_order, bw_in_order * 0.2);
}

TEST(BbrLiteTest, LossEventsLeaveTheModelAlone) {
  BbrLite cc(kMss, 10 * kMss);
  Time now = Time::zero();
  drive_acks(cc, now, 1e6, Time::milliseconds(20), Time::seconds(2));
  const std::uint64_t cwnd = cc.cwnd_bytes();
  cc.on_enter_recovery(now, cwnd);
  EXPECT_EQ(cc.cwnd_bytes(), cwnd);
  cc.on_exit_recovery(now);
  EXPECT_EQ(cc.cwnd_bytes(), cwnd);
  // Only an RTO collapses, and only to the floor — the bw filter survives.
  const double bw = cc.bottleneck_bw_bytes_per_sec();
  cc.on_timeout(now, cwnd);
  EXPECT_EQ(cc.cwnd_bytes(), std::uint64_t{4} * kMss);
  EXPECT_EQ(cc.bottleneck_bw_bytes_per_sec(), bw);
}

TEST(BbrLiteTest, ProbeRttDipsAndSignals) {
  BbrLite cc(kMss, 10 * kMss);
  Time now = Time::zero();
  drive_acks(cc, now, 1e6, Time::milliseconds(20), Time::milliseconds(500));
  EXPECT_FALSE(cc.in_probe_rtt());
  // Keep delivering with a *higher* RTT so the min never refreshes; once
  // the 10 s min-RTT window lapses the controller must probe.
  bool probed = false;
  CcSignal signal = CcSignal::kNone;
  const Time gap = Time::from_seconds(kMss / 1e6);
  const Time until = now + Time::seconds(12);
  while (now < until && !probed) {
    now = now + gap;
    cc.on_ack(rtt_ack(now, Time::milliseconds(25)));
    const CcSignal s = cc.take_signal();
    if (s != CcSignal::kNone) signal = s;
    probed = cc.in_probe_rtt();
  }
  EXPECT_GT(now, Time::seconds(10));
  ASSERT_TRUE(probed);
  EXPECT_EQ(signal, CcSignal::kBbrProbeRtt);
  EXPECT_EQ(cc.cwnd_bytes(), std::uint64_t{4} * kMss);
  // The 200 ms episode ends and the window restores.
  drive_acks(cc, now, 1e6, Time::milliseconds(20), Time::milliseconds(400));
  EXPECT_FALSE(cc.in_probe_rtt());
  EXPECT_GT(cc.cwnd_bytes(), std::uint64_t{4} * kMss);
}

TEST(BbrLiteTest, FactorySelectsBbr) {
  TcpConfig config;
  config.congestion_control = CcAlgorithm::kBbrLite;
  const auto cc = make_congestion_control(config, 10 * kMss);
  EXPECT_STREQ(cc->name(), "bbr-lite");
}

// ------------------------------------------------- per-route CC plumbing

TEST(RouteCcTest, TokensRoundTrip) {
  for (const RouteCc cc : {RouteCc::kReno, RouteCc::kCubic,
                           RouteCc::kCubicFast, RouteCc::kBbrLite}) {
    RouteCc parsed = RouteCc::kUnset;
    ASSERT_TRUE(parse_route_cc(to_string(cc), parsed)) << to_string(cc);
    EXPECT_EQ(parsed, cc);
  }
  RouteCc parsed = RouteCc::kUnset;
  EXPECT_FALSE(parse_route_cc("vegas", parsed));
  EXPECT_FALSE(parse_route_cc("", parsed));
}

TEST(RouteCcTest, ApplySetsAlgorithmAndCompanions) {
  TcpConfig config;  // defaults: cubic, no hystart, no pacing
  apply_route_cc(RouteCc::kUnset, config);
  EXPECT_EQ(config.congestion_control, CcAlgorithm::kCubic);
  EXPECT_FALSE(config.hystart);
  EXPECT_FALSE(config.pacing);

  apply_route_cc(RouteCc::kReno, config);
  EXPECT_EQ(config.congestion_control, CcAlgorithm::kNewReno);

  apply_route_cc(RouteCc::kCubicFast, config);
  EXPECT_EQ(config.congestion_control, CcAlgorithm::kCubic);
  EXPECT_TRUE(config.hystart);
  EXPECT_TRUE(config.pacing);

  TcpConfig bbr;
  const std::uint32_t icw = bbr.initial_cwnd_segments;
  apply_route_cc(RouteCc::kBbrLite, bbr);
  EXPECT_EQ(bbr.congestion_control, CcAlgorithm::kBbrLite);
  EXPECT_TRUE(bbr.pacing);
  // Windows are the agent's lever, never the regime's.
  EXPECT_EQ(bbr.initial_cwnd_segments, icw);
}

TEST(RouteCcTest, PolicyGrammarRoundTripsCcSuffix) {
  for (const std::string name :
       {"default,cc=bbr", "static-iw32@24,cc=cubic-fast",
        "adaptive-governed@24,cc=bbr", "oracle@20,cc=reno", "adaptive"}) {
    const policy::PolicySpec spec = policy::parse_policy(name);
    EXPECT_EQ(policy::to_string(spec), name) << name;
  }
  EXPECT_EQ(policy::parse_policy("adaptive,cc=bbr").cc, RouteCc::kBbrLite);
  EXPECT_THROW(policy::parse_policy("adaptive,cc=vegas"),
               std::invalid_argument);
  EXPECT_THROW(policy::parse_policy("adaptive,iw=3"), std::invalid_argument);
  EXPECT_THROW(policy::parse_policy("adaptive,cc="), std::invalid_argument);
}

TEST(RouteCcTest, PolicyAppliesCcToConfig) {
  cdn::ExperimentConfig config;
  policy::apply_policy(config, policy::parse_policy("default,cc=bbr"));
  EXPECT_EQ(config.topology.host_tcp.congestion_control,
            CcAlgorithm::kBbrLite);
  EXPECT_TRUE(config.topology.host_tcp.pacing);

  cdn::ExperimentConfig adaptive;
  policy::apply_policy(adaptive,
                       policy::parse_policy("adaptive,cc=cubic-fast"));
  EXPECT_EQ(adaptive.riptide.route_cc, RouteCc::kCubicFast);
  // The host-wide config is untouched: only programmed routes switch.
  EXPECT_EQ(adaptive.topology.host_tcp.congestion_control,
            CcAlgorithm::kCubic);
}

// Route metric -> connect-time consumption, through a real world: program
// a bbr route on one host, open a connection past it, and observe the
// controller switch (and stay stock for unprogrammed destinations).
TEST(RouteCcTest, ProgrammedRouteSwitchesController) {
  cdn::ExperimentConfig config;
  config.pop_specs = {cdn::default_pop_specs()[0], cdn::default_pop_specs()[1],
                      cdn::default_pop_specs()[2]};
  config.topology.hosts_per_pop = 1;
  config.riptide_enabled = false;
  config.duration = Time::seconds(5);
  cdn::Experiment exp(config);

  host::Host& src = exp.topology().host(0, 0);
  host::Host& dst = exp.topology().host(1, 0);
  core::HostRouteProgrammer programmer(src);
  programmer.set_initial_windows(net::Prefix::host(dst.address()), 32, 32,
                                 RouteCc::kBbrLite);
  EXPECT_EQ(src.routing_table().effective_cc(dst.address()),
            RouteCc::kBbrLite);
  // connect() consults the route once, like Linux does at SYN time; the
  // connection's config shows what it resolved.
  const tcp::TcpConnection& conn = src.connect(dst.address(), 80, {});
  EXPECT_EQ(conn.config().congestion_control, CcAlgorithm::kBbrLite);
  EXPECT_TRUE(conn.config().pacing);
  EXPECT_EQ(conn.config().initial_cwnd_segments, 32u);

  // A destination with no programmed route keeps the host default.
  host::Host& other = exp.topology().host(2, 0);
  const tcp::TcpConnection& stock = src.connect(other.address(), 80, {});
  EXPECT_EQ(stock.config().congestion_control, CcAlgorithm::kCubic);
  EXPECT_FALSE(stock.config().pacing);
}

// ------------------------------------- pacing determinism across threads

// Golden-style world with the pacer ON: the fingerprint must not depend
// on ParallelRunner's thread count (pacer state is strictly per-run) or
// on repetition (no state leaks across runs).
cdn::ExperimentConfig paced_config(std::uint64_t seed = 42) {
  cdn::ExperimentConfig config;
  config.pop_specs = {cdn::default_pop_specs()[0], cdn::default_pop_specs()[1],
                      cdn::default_pop_specs()[2]};
  config.topology.hosts_per_pop = 1;
  config.topology.wan_loss_probability = 2e-4;
  config.topology.seed = seed;
  config.topology.host_tcp.pacing = true;
  config.topology.host_tcp.hystart = true;
  config.riptide_enabled = true;
  config.riptide.update_interval = Time::seconds(1);
  config.riptide.c_max = 100;
  config.probe.interval = Time::seconds(5);
  config.duration = Time::seconds(30);
  config.seed = seed;
  return config;
}

std::string serialize_flows(const cdn::Experiment& exp) {
  std::string out;
  char line[160];
  for (const auto& f : exp.metrics().flows()) {
    std::snprintf(line, sizeof line, "F,%d,%d,%" PRIu64 ",%" PRId64 "\n",
                  f.src_pop, f.dst_pop, f.object_bytes, f.duration.ns());
    out += line;
  }
  return out;
}

TEST(PacedDeterminismTest, FingerprintInvariantAcrossThreads) {
  const auto run_with_threads = [](unsigned threads) {
    auto results =
        runner::ParallelRunner(threads).run(runner::SweepSpec(paced_config())
                                                .seeds({42, 43})
                                                .materialize());
    std::uint32_t crc = 0;
    for (const auto& r : results) {
      crc = persist::crc32(serialize_flows(*r.experiment) +
                           std::to_string(crc));
    }
    return crc;
  };
  const std::uint32_t one = run_with_threads(1);
  EXPECT_EQ(one, run_with_threads(2));
  EXPECT_EQ(one, run_with_threads(1));  // run-twice
}

TEST(PacedDeterminismTest, BbrWorldIsRepeatable) {
  cdn::ExperimentConfig config = paced_config();
  apply_route_cc(RouteCc::kBbrLite, config.topology.host_tcp);
  const auto fingerprint = [&config] {
    cdn::Experiment exp(config);
    exp.run();
    return persist::crc32(serialize_flows(exp));
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

}  // namespace
}  // namespace riptide
