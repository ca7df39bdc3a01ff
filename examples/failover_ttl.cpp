// Adaptability and the TTL safety valve (§III-B).
//
// Riptide must (1) stop boosting a destination once it has no evidence —
// the time-to-live expiry restoring the default IW10 — and (2) follow the
// network down: when a path degrades and congestion windows shrink, the
// learned initial window shrinks with them instead of blasting a congested
// link.
//
// Build & run:  ./build/examples/failover_ttl

#include <cstdio>

#include "core/agent.h"
#include "host/host.h"
#include "net/link.h"
#include "sim/random.h"
#include "sim/simulator.h"

using namespace riptide;
using sim::Time;

namespace {

constexpr std::uint16_t kSinkPort = 9900;

std::uint32_t learned_initcwnd(host::Host& host, net::Ipv4Address dst) {
  return host.routing_table().effective_initcwnd(dst, 10);
}

}  // namespace

int main() {
  sim::Simulator sim;
  sim::Rng rng(3);

  host::Host a(sim, "a", net::Ipv4Address(10, 0, 0, 1));
  host::Host b(sim, "b", net::Ipv4Address(10, 1, 0, 1));
  // The b-ward link gets an Rng so its loss can be raised mid-run.
  net::Link ab(sim, {1e9, Time::milliseconds(40), 64, 0.0, "a->b"}, b, &rng);
  net::Link ba(sim, {1e9, Time::milliseconds(40), 1024, 0.0, "b->a"}, a, &rng);
  a.attach_uplink(ab);
  b.attach_uplink(ba);

  b.listen(kSinkPort, [](tcp::TcpConnection& conn) {
    tcp::TcpConnection::Callbacks cbs;
    cbs.on_peer_closed = [&conn] { conn.close(); };
    conn.set_callbacks(std::move(cbs));
  });

  core::RiptideConfig config;
  config.ttl = Time::seconds(90);  // the paper's deployed value
  core::RiptideAgent agent(sim, a, config);
  agent.start();

  // Phase 1: healthy path, regular 200 KB pushes grow the window.
  tcp::TcpConnection* conn = nullptr;
  tcp::TcpConnection::Callbacks cbs;
  conn = &a.connect(b.address(), kSinkPort, std::move(cbs));
  sim.run_until(Time::milliseconds(200));
  for (int i = 0; i < 5; ++i) {
    conn->send(200'000);
    sim.run_until(sim.now() + Time::seconds(3));
  }
  std::printf("phase 1 (healthy path): learned initcwnd toward b = %u "
              "segments (cwnd on live conn: %u)\n",
              learned_initcwnd(a, b.address()), conn->cwnd_segments());

  // Phase 2: the path degrades — 8% loss. Cubic backs off; Riptide's
  // average follows the shrinking windows within a few poll intervals.
  // (This is the "if connections demonstrate smaller windows, Riptide will
  // respond accordingly" property of §III-B.) The link degrades in place,
  // as the fault injector's loss faults do.
  ab.set_loss_probability(0.08);
  for (int i = 0; i < 8; ++i) {
    conn->send(50'000);
    sim.run_until(sim.now() + Time::seconds(4));
  }
  std::printf("phase 2 (8%% loss): learned initcwnd toward b = %u segments "
              "(cwnd on live conn: %u) — the boost follows the network "
              "down\n",
              learned_initcwnd(a, b.address()), conn->cwnd_segments());

  // Phase 3: the application hits an error and hard-closes (§II-A's
  // "unmanageable error cases"). With no connections left, the entry ages
  // out after the 90 s TTL, the route is withdrawn, and new connections
  // are back to the default initial window.
  conn->abort();
  sim.run_until(sim.now() + Time::seconds(60));
  std::printf("phase 3 (+60 s idle): learned initcwnd = %u (entry still "
              "within TTL)\n",
              learned_initcwnd(a, b.address()));
  sim.run_until(sim.now() + Time::seconds(60));
  std::printf("phase 3 (+120 s idle): learned initcwnd = %u (TTL expired -> "
              "default restored), routes expired so far: %llu\n",
              learned_initcwnd(a, b.address()),
              static_cast<unsigned long long>(agent.stats().routes_expired));
  return 0;
}
