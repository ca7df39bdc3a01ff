// Tests for the textual `ss` surface: formatting, parsing, robustness to
// garbage, and the agent's text-interface equivalence.

#include <gtest/gtest.h>

#include <sstream>

#include "cdn/metrics.h"
#include "host/ss_format.h"
#include "test_util.h"

namespace riptide::host {
namespace {

using riptide::test::TwoHostNet;
using sim::Time;

SocketInfo sample_info() {
  SocketInfo info;
  info.tuple = {net::Ipv4Address(10, 0, 0, 1), 42'000,
                net::Ipv4Address(10, 1, 0, 1), 9000};
  info.state = tcp::TcpState::kEstablished;
  info.cwnd_segments = 34;
  info.bytes_acked = 123'456;
  info.bytes_in_flight = 2920;
  info.srtt = Time::from_milliseconds(120.5);
  return info;
}

TEST(SsFormatTest, FormatsOneLinePerConnection) {
  const std::string text = format_socket_stats({sample_info(), sample_info()});
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("ESTAB 10.0.0.1:42000 10.1.0.1:9000"),
            std::string::npos);
  EXPECT_NE(text.find("cwnd:34"), std::string::npos);
  EXPECT_NE(text.find("bytes_acked:123456"), std::string::npos);
  EXPECT_NE(text.find("rtt:120.5"), std::string::npos);
  EXPECT_NE(text.find("unacked:2920"), std::string::npos);
}

TEST(SsFormatTest, RoundTripPreservesFields) {
  const auto parsed = parse_socket_stats(format_socket_stats({sample_info()}));
  ASSERT_EQ(parsed.size(), 1u);
  const auto& p = parsed[0];
  EXPECT_EQ(p.state, tcp::TcpState::kEstablished);
  EXPECT_EQ(p.local_addr, net::Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(p.local_port, 42'000);
  EXPECT_EQ(p.remote_addr, net::Ipv4Address(10, 1, 0, 1));
  EXPECT_EQ(p.remote_port, 9000);
  EXPECT_EQ(p.cwnd_segments, 34u);
  EXPECT_EQ(p.bytes_acked, 123'456u);
  EXPECT_NEAR(p.rtt_ms, 120.5, 0.01);
  EXPECT_EQ(p.bytes_in_flight, 2920u);
}

TEST(SsFormatTest, UnsampledRttRendersAsDash) {
  auto info = sample_info();
  info.srtt.reset();
  const auto parsed = parse_socket_stats(format_socket_stats({info}));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed[0].rtt_ms, -1.0);
}

TEST(SsFormatTest, AllStatesRoundTrip) {
  for (auto state :
       {tcp::TcpState::kSynSent, tcp::TcpState::kSynReceived,
        tcp::TcpState::kEstablished, tcp::TcpState::kFinWait1,
        tcp::TcpState::kFinWait2, tcp::TcpState::kCloseWait,
        tcp::TcpState::kClosing, tcp::TcpState::kLastAck,
        tcp::TcpState::kTimeWait, tcp::TcpState::kClosed}) {
    auto info = sample_info();
    info.state = state;
    const auto parsed = parse_socket_stats(format_socket_stats({info}));
    ASSERT_EQ(parsed.size(), 1u) << to_string(state);
    EXPECT_EQ(parsed[0].state, state);
  }
}

TEST(SsFormatTest, MalformedLinesSkippedNotFatal) {
  const std::string text =
      "this is not an ss line\n"
      "ESTAB 10.0.0.1:1 10.0.0.2:2 cwnd:10 bytes_acked:5 rtt:1.0 unacked:0\n"
      "ESTAB garbage_endpoint 10.0.0.2:2 cwnd:10\n"
      "WEIRD-STATE 10.0.0.1:1 10.0.0.2:2 cwnd:10\n"
      "ESTAB 10.0.0.1:1 10.0.0.2:2 bytes_acked:5\n"  // missing cwnd
      "ESTAB 10.0.0.1:1 10.0.0.2:2 cwnd:notanumber\n"
      "\n";
  const auto parsed = parse_socket_stats(text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].cwnd_segments, 10u);
}

TEST(SsFormatTest, UnknownKeysIgnored) {
  const std::string text =
      "ESTAB 10.0.0.1:1 10.0.0.2:2 cwnd:22 ssthresh:7 pacing_rate:99 "
      "bytes_acked:13 rtt:2.5 unacked:0 newfield:x\n";
  const auto parsed = parse_socket_stats(text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].cwnd_segments, 22u);
  EXPECT_EQ(parsed[0].bytes_acked, 13u);
}

TEST(SsFormatTest, EmptyInputEmptyOutput) {
  EXPECT_TRUE(parse_socket_stats("").empty());
  EXPECT_TRUE(format_socket_stats({}).empty());
}

TEST(SsFormatTest, LiveHostRoundTrip) {
  TwoHostNet net(Time::milliseconds(10));
  net.b.listen(80, [](tcp::TcpConnection&) {});
  tcp::TcpConnection::Callbacks cbs;
  net.a.connect(net.b.address(), 80, std::move(cbs));
  net.sim.run_until(Time::milliseconds(100));
  const auto parsed =
      parse_socket_stats(format_socket_stats(net.a.socket_stats()));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].remote_addr, net.b.address());
  EXPECT_EQ(parsed[0].cwnd_segments, 10u);
}

}  // namespace
}  // namespace riptide::host

namespace riptide::cdn {
namespace {

TEST(MetricsCsvTest, FlowsCsvHasHeaderAndRows) {
  MetricsCollector metrics;
  metrics.record_flow({0, 1, 50'000, sim::Time::seconds(1),
                       sim::Time::milliseconds(250), true, 80.0});
  std::ostringstream os;
  metrics.write_flows_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("started_ms,duration_ms,src_pop"), std::string::npos);
  EXPECT_NE(csv.find("1000,250,0,1,50000,1,80"), std::string::npos);
}

TEST(MetricsCsvTest, CwndCsvHasHeaderAndRows) {
  MetricsCollector metrics;
  metrics.record_cwnd({3, 42, sim::Time::seconds(2)});
  std::ostringstream os;
  metrics.write_cwnd_csv(os);
  EXPECT_NE(os.str().find("at_ms,pop,cwnd_segments"), std::string::npos);
  EXPECT_NE(os.str().find("2000,3,42"), std::string::npos);
}

TEST(MetricsCsvTest, EmptyCollectorOnlyHeaders) {
  MetricsCollector metrics;
  std::ostringstream flows, cwnds;
  metrics.write_flows_csv(flows);
  metrics.write_cwnd_csv(cwnds);
  const std::string flows_csv = flows.str();
  const std::string cwnds_csv = cwnds.str();
  EXPECT_EQ(std::count(flows_csv.begin(), flows_csv.end(), '\n'), 1);
  EXPECT_EQ(std::count(cwnds_csv.begin(), cwnds_csv.end(), '\n'), 1);
}

}  // namespace
}  // namespace riptide::cdn
