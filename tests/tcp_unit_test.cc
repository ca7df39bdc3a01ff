#include <gtest/gtest.h>

#include "tcp/congestion_control.h"
#include "tcp/cubic.h"
#include "tcp/receive_tracker.h"
#include "tcp/reno.h"
#include "tcp/rtt_estimator.h"
#include "tcp/segment.h"

namespace riptide::tcp {
namespace {

using sim::Time;

// ---------------------------------------------------------------- Segment

TEST(SegmentTest, SequenceSpanCountsSynFinAndPayload) {
  Segment s;
  EXPECT_EQ(s.sequence_span(), 0u);
  s.syn = true;
  EXPECT_EQ(s.sequence_span(), 1u);
  s.payload_bytes = 100;
  EXPECT_EQ(s.sequence_span(), 101u);
  s.fin = true;
  EXPECT_EQ(s.sequence_span(), 102u);
  s.seq = 10;
  EXPECT_EQ(s.seq_end(), 112u);
}

TEST(SegmentTest, FlagsString) {
  Segment s;
  EXPECT_EQ(s.flags_string(), ".");
  s.syn = true;
  s.ack_flag = true;
  EXPECT_EQ(s.flags_string(), "SA");
}

// ----------------------------------------------------------- RttEstimator

TEST(RttEstimatorTest, InitialRtoBeforeSamples) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.rto(), Time::seconds(1));
}

TEST(RttEstimatorTest, FirstSampleSeedsSrttAndVar) {
  RttEstimator est;
  est.add_sample(Time::milliseconds(100));
  EXPECT_EQ(est.srtt(), Time::milliseconds(100));
  EXPECT_EQ(est.rttvar(), Time::milliseconds(50));
  // RTO = srtt + 4*rttvar = 300 ms
  EXPECT_EQ(est.rto(), Time::milliseconds(300));
}

TEST(RttEstimatorTest, SmoothingFollowsRfc6298) {
  RttEstimator est;
  est.add_sample(Time::milliseconds(100));
  est.add_sample(Time::milliseconds(200));
  // srtt = 7/8*100 + 1/8*200 = 112.5ms; rttvar = 3/4*50 + 1/4*100 = 62.5ms
  EXPECT_EQ(est.srtt(), Time::microseconds(112500));
  EXPECT_EQ(est.rttvar(), Time::microseconds(62500));
}

TEST(RttEstimatorTest, RtoClampedToMinimum) {
  RttEstimator est;
  est.add_sample(Time::milliseconds(10));
  // 10 + 4*5 = 30 ms < min 200 ms
  EXPECT_EQ(est.rto(), Time::milliseconds(200));
}

TEST(RttEstimatorTest, BackoffDoublesRto) {
  RttEstimator est;
  est.add_sample(Time::milliseconds(100));
  est.on_timeout();
  EXPECT_EQ(est.rto(), Time::milliseconds(600));
  est.on_timeout();
  EXPECT_EQ(est.rto(), Time::milliseconds(1200));
}

TEST(RttEstimatorTest, FreshSampleResetsBackoff) {
  RttEstimator est;
  est.add_sample(Time::milliseconds(100));
  est.on_timeout();
  est.add_sample(Time::milliseconds(100));
  EXPECT_EQ(est.backoff_count(), 0u);
  EXPECT_LT(est.rto(), Time::milliseconds(600));
}

TEST(RttEstimatorTest, RtoCappedAtMaximum) {
  RttEstimator est;
  est.add_sample(Time::seconds(10));
  for (int i = 0; i < 20; ++i) est.on_timeout();
  EXPECT_EQ(est.rto(), Time::seconds(120));
}

// --------------------------------------------------------- ReceiveTracker

TEST(ReceiveTrackerTest, InOrderDeliveryAdvances) {
  ReceiveTracker t(0);
  EXPECT_EQ(t.on_segment(0, 100), 100u);
  EXPECT_EQ(t.rcv_nxt(), 100u);
  EXPECT_EQ(t.on_segment(100, 250), 150u);
  EXPECT_EQ(t.rcv_nxt(), 250u);
}

TEST(ReceiveTrackerTest, OutOfOrderHeldUntilGapFills) {
  ReceiveTracker t(0);
  EXPECT_EQ(t.on_segment(100, 200), 0u);
  EXPECT_TRUE(t.has_out_of_order());
  EXPECT_EQ(t.out_of_order_bytes(), 100u);
  EXPECT_EQ(t.on_segment(0, 100), 200u);  // delivers both chunks
  EXPECT_EQ(t.rcv_nxt(), 200u);
  EXPECT_FALSE(t.has_out_of_order());
}

TEST(ReceiveTrackerTest, DuplicateSegmentsDeliverNothing) {
  ReceiveTracker t(0);
  t.on_segment(0, 100);
  EXPECT_EQ(t.on_segment(0, 100), 0u);
  EXPECT_EQ(t.on_segment(50, 80), 0u);
  EXPECT_TRUE(t.is_duplicate(0, 100));
  EXPECT_TRUE(t.is_duplicate(20, 60));
}

TEST(ReceiveTrackerTest, PartialOverlapDeliversOnlyNewBytes) {
  ReceiveTracker t(0);
  t.on_segment(0, 100);
  EXPECT_EQ(t.on_segment(50, 150), 50u);
  EXPECT_EQ(t.rcv_nxt(), 150u);
}

TEST(ReceiveTrackerTest, MergesAdjacentOutOfOrderIntervals) {
  ReceiveTracker t(0);
  t.on_segment(100, 200);
  t.on_segment(300, 400);
  EXPECT_EQ(t.out_of_order_intervals(), 2u);
  t.on_segment(200, 300);  // bridges the two
  EXPECT_EQ(t.out_of_order_intervals(), 1u);
  EXPECT_EQ(t.out_of_order_bytes(), 300u);
  EXPECT_EQ(t.on_segment(0, 100), 400u);
}

TEST(ReceiveTrackerTest, OverlappingOutOfOrderMerges) {
  ReceiveTracker t(0);
  t.on_segment(100, 250);
  t.on_segment(200, 300);
  EXPECT_EQ(t.out_of_order_intervals(), 1u);
  EXPECT_EQ(t.out_of_order_bytes(), 200u);
}

TEST(ReceiveTrackerTest, NonZeroInitialSequence) {
  ReceiveTracker t(1);
  EXPECT_EQ(t.on_segment(1, 50), 49u);
  EXPECT_EQ(t.rcv_nxt(), 50u);
}

TEST(ReceiveTrackerTest, EmptyAndInvertedRangesAreNoops) {
  ReceiveTracker t(0);
  EXPECT_EQ(t.on_segment(10, 10), 0u);
  EXPECT_EQ(t.on_segment(20, 10), 0u);
  EXPECT_FALSE(t.has_out_of_order());
  EXPECT_TRUE(t.is_duplicate(10, 10));
}

TEST(ReceiveTrackerTest, IsDuplicateWithOutOfOrderCoverage) {
  ReceiveTracker t(0);
  t.on_segment(100, 200);
  EXPECT_TRUE(t.is_duplicate(100, 200));
  EXPECT_TRUE(t.is_duplicate(120, 180));
  EXPECT_FALSE(t.is_duplicate(100, 250));
  EXPECT_FALSE(t.is_duplicate(0, 50));
}

// ------------------------------------------------------------------ Reno

constexpr std::uint32_t kMss = 1000;

AckEvent ack_event(std::uint64_t bytes, std::uint64_t in_flight = 10000,
                   Time now = Time::seconds(1)) {
  return AckEvent{now, bytes, in_flight, std::nullopt};
}

TEST(NewRenoTest, StartsAtInitialWindow) {
  NewReno cc(kMss, 10 * kMss);
  EXPECT_EQ(cc.cwnd_bytes(), 10u * kMss);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(NewRenoTest, SlowStartGrowsByBytesAcked) {
  NewReno cc(kMss, 10 * kMss);
  cc.on_ack(ack_event(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), 11u * kMss);
}

TEST(NewRenoTest, SlowStartAbcCapsAtTwoMssPerAck) {
  NewReno cc(kMss, 10 * kMss);
  cc.on_ack(ack_event(5 * kMss));
  EXPECT_EQ(cc.cwnd_bytes(), 12u * kMss);
}

TEST(NewRenoTest, SlowStartDoublesPerRoundTrip) {
  NewReno cc(kMss, 10 * kMss);
  // One round trip: 10 segments acked one by one.
  for (int i = 0; i < 10; ++i) cc.on_ack(ack_event(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), 20u * kMss);
}

TEST(NewRenoTest, CongestionAvoidanceAddsOneMssPerWindow) {
  NewReno cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 20 * kMss);  // ssthresh = 10 MSS
  cc.on_exit_recovery(Time::seconds(2));
  EXPECT_EQ(cc.cwnd_bytes(), 10u * kMss);
  EXPECT_FALSE(cc.in_slow_start());
  // One full window of ACKs grows cwnd by one MSS.
  for (int i = 0; i < 10; ++i) cc.on_ack(ack_event(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), 11u * kMss);
}

TEST(NewRenoTest, RecoveryHalvesToFlightBasedSsthresh) {
  NewReno cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 16 * kMss);
  EXPECT_EQ(cc.ssthresh_bytes(), 8u * kMss);
  EXPECT_EQ(cc.cwnd_bytes(), 8u * kMss);
}

TEST(NewRenoTest, SsthreshFloorsAtTwoMss) {
  NewReno cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 2 * kMss);
  EXPECT_EQ(cc.ssthresh_bytes(), 2u * kMss);
}

TEST(NewRenoTest, WindowFrozenDuringRecovery) {
  NewReno cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 20 * kMss);
  const auto during = cc.cwnd_bytes();
  cc.on_ack(ack_event(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), during);
}

TEST(NewRenoTest, TimeoutCollapsesToOneMss) {
  NewReno cc(kMss, 10 * kMss);
  cc.on_timeout(Time::seconds(1), 20 * kMss);
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
  EXPECT_EQ(cc.ssthresh_bytes(), 10u * kMss);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(NewRenoTest, RestartAfterIdleReturnsToInitialWindow) {
  NewReno cc(kMss, 10 * kMss);
  for (int i = 0; i < 30; ++i) cc.on_ack(ack_event(kMss));
  EXPECT_GT(cc.cwnd_bytes(), 10u * kMss);
  cc.on_restart_after_idle();
  EXPECT_EQ(cc.cwnd_bytes(), 10u * kMss);
}

TEST(NewRenoTest, RestartAfterIdleNeverGrowsWindow) {
  NewReno cc(kMss, 10 * kMss);
  cc.on_timeout(Time::seconds(1), 10 * kMss);  // cwnd = 1 MSS
  cc.on_restart_after_idle();
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
}

// A Riptide-sized initial window behaves identically: the window is just a
// parameter (this is the property Riptide relies on).
TEST(NewRenoTest, LargeInitialWindowSlowStartsFromThere) {
  NewReno cc(kMss, 100 * kMss);
  EXPECT_EQ(cc.cwnd_bytes(), 100u * kMss);
  cc.on_ack(ack_event(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), 101u * kMss);
}

// ----------------------------------------------------------------- Cubic

TEST(CubicTest, StartsAtInitialWindowInSlowStart) {
  Cubic cc(kMss, 10 * kMss);
  EXPECT_EQ(cc.cwnd_bytes(), 10u * kMss);
  EXPECT_TRUE(cc.in_slow_start());
  EXPECT_STREQ(cc.name(), "cubic");
}

TEST(CubicTest, SlowStartGrowsByBytesAcked) {
  Cubic cc(kMss, 10 * kMss);
  cc.on_ack(ack_event(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), 11u * kMss);
}

TEST(CubicTest, MultiplicativeDecreaseUsesBeta) {
  Cubic cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 20 * kMss);
  // ssthresh = 0.7 * 20 MSS = 14 MSS
  EXPECT_EQ(cc.ssthresh_bytes(), 14u * kMss);
  EXPECT_EQ(cc.cwnd_bytes(), 14u * kMss);
}

TEST(CubicTest, TimeoutCollapsesToOneMss) {
  Cubic cc(kMss, 10 * kMss);
  cc.on_timeout(Time::seconds(1), 20 * kMss);
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
}

TEST(CubicTest, GrowsInCongestionAvoidanceOverTime) {
  Cubic cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 20 * kMss);
  cc.on_exit_recovery(Time::seconds(1));
  const auto after_decrease = cc.cwnd_bytes();
  // Feed ACKs over simulated seconds: the cubic curve must climb back
  // toward and past w_max.
  Time now = Time::seconds(1);
  for (int i = 0; i < 2000; ++i) {
    now += Time::milliseconds(10);
    cc.on_ack(AckEvent{now, kMss, 10 * kMss, Time::milliseconds(100)});
  }
  EXPECT_GT(cc.cwnd_bytes(), after_decrease);
  EXPECT_GT(cc.cwnd_bytes(), 20u * kMss);  // past the old w_max
}

TEST(CubicTest, PlateausNearWmax) {
  Cubic cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 40 * kMss);
  cc.on_exit_recovery(Time::seconds(1));
  // Shortly after the decrease the window should still be below the old
  // w_max (the concave approach), not jump over it instantly.
  Time now = Time::seconds(1);
  for (int i = 0; i < 5; ++i) {
    now += Time::milliseconds(10);
    cc.on_ack(AckEvent{now, kMss, 10 * kMss, Time::milliseconds(100)});
  }
  EXPECT_LT(cc.cwnd_bytes(), 40u * kMss);
}

TEST(CubicTest, FastConvergenceLowersWmaxOnBackToBackLosses) {
  Cubic cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 40 * kMss);   // w_max = 10
  cc.on_exit_recovery(Time::seconds(1));
  const auto first = cc.ssthresh_bytes();
  cc.on_enter_recovery(Time::seconds(2), cc.cwnd_bytes());
  // Second loss below the previous w_max: ssthresh must shrink further.
  EXPECT_LT(cc.ssthresh_bytes(), first);
}

TEST(CubicTest, RestartAfterIdleReturnsToInitialWindow) {
  Cubic cc(kMss, 10 * kMss);
  for (int i = 0; i < 50; ++i) cc.on_ack(ack_event(kMss));
  cc.on_restart_after_idle();
  EXPECT_EQ(cc.cwnd_bytes(), 10u * kMss);
}

TEST(CubicTest, WindowFrozenDuringRecovery) {
  Cubic cc(kMss, 10 * kMss);
  cc.on_enter_recovery(Time::seconds(1), 20 * kMss);
  const auto during = cc.cwnd_bytes();
  cc.on_ack(ack_event(kMss));
  EXPECT_EQ(cc.cwnd_bytes(), during);
}

// --------------------------------------------------------------- factory

TEST(CongestionControlFactoryTest, SelectsAlgorithm) {
  TcpConfig config;
  config.congestion_control = CcAlgorithm::kNewReno;
  auto reno = make_congestion_control(config, 10 * kMss);
  EXPECT_STREQ(reno->name(), "newreno");
  config.congestion_control = CcAlgorithm::kCubic;
  auto cubic = make_congestion_control(config, 10 * kMss);
  EXPECT_STREQ(cubic->name(), "cubic");
}

TEST(CongestionControlFactoryTest, AppliesInitialWindow) {
  TcpConfig config;
  auto cc = make_congestion_control(config, 77 * kMss);
  EXPECT_EQ(cc->cwnd_bytes(), 77u * kMss);
}

}  // namespace
}  // namespace riptide::tcp
