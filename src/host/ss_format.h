#pragma once

#include <string>
#include <vector>

#include "host/host.h"

namespace riptide::host {

// Textual `ss -ti`-style rendering of a host's connection table, and the
// parser that recovers the fields Riptide needs. The paper's tool is a
// user-space script that shells out to `ss` and parses its output; the
// round-trip tests (SsFormatTest.LiveHostRoundTrip, fuzz_ss_format) show
// that the textual surface carries every field the agent reads.
//
// Format, one connection per line (wrapped here for width):
//   ESTAB 10.0.0.1:42000 10.1.0.1:9000 cwnd:34 bytes_acked:100000
//     rtt:120.5 unacked:0 retrans:3 segs_out:120
// (rtt in milliseconds, "-" when not yet sampled.)

std::string format_socket_stats(const std::vector<SocketInfo>& infos);

// Fields recovered from one `ss` line.
struct ParsedSocketInfo {
  tcp::TcpState state = tcp::TcpState::kClosed;
  net::Ipv4Address local_addr;
  std::uint16_t local_port = 0;
  net::Ipv4Address remote_addr;
  std::uint16_t remote_port = 0;
  std::uint32_t cwnd_segments = 0;
  std::uint64_t bytes_acked = 0;
  double rtt_ms = -1.0;  // -1 when unsampled
  std::uint64_t bytes_in_flight = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t segments_sent = 0;
};

// Parses the output of format_socket_stats. Malformed lines are skipped
// (never thrown on): a monitoring agent must survive garbage in a pipe.
std::vector<ParsedSocketInfo> parse_socket_stats(const std::string& text);

}  // namespace riptide::host
