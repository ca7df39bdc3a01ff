#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host/host.h"
#include "net/ipv4.h"
#include "sim/simulator.h"

namespace riptide::cdn {

// Adversarial traffic/topology shapes for the "when is jump-starting
// safe?" suite (ROADMAP item 3). Each scenario is the paper's blind spot:
// conditions where a large initial window *hurts*, stressing the
// SafetyGovernor instead of showcasing the latency win.
enum class HostileKind : std::uint8_t {
  kNone,
  // Bottleneck queues far shallower than the learned windows: a single
  // jump-started burst overflows the queue it used to fill gradually.
  kShallowBuffer,
  // Synchronized periodic fan-in at one victim PoP: many sources open
  // fresh connections to the same destination in the same instant, so
  // their (possibly boosted) initial bursts collide at the victim's
  // ingress queue.
  kIncast,
  // Flash crowd: every PoP opens a wave of fresh connections at once —
  // hundreds of jump-starts land inside one RTT across the whole mesh.
  kFlashCrowd,
  // Shallow buffers + incast + flash crowd together, the worst case the
  // staged governor ladder is built for.
  kCombined,
};
const char* to_string(HostileKind kind);

struct HostileConfig {
  HostileKind kind = HostileKind::kNone;

  // shallow-buffer / combined: WAN bottleneck queue depth, in packets
  // (the clean topology default is 4096).
  std::size_t queue_packets = 32;

  // incast / combined
  std::size_t victim_pop = 0;
  int fanin_connections = 8;  // fresh connections per source host per wave
  std::uint64_t burst_bytes = 100'000;
  sim::Time incast_start = sim::Time::seconds(5);
  sim::Time incast_interval = sim::Time::seconds(10);

  // flash-crowd / combined
  sim::Time crowd_at = sim::Time::seconds(30);
  int crowd_connections = 20;  // fresh connections per host per wave
  std::uint64_t crowd_bytes = 200'000;
  int crowd_repeats = 2;
  sim::Time crowd_period = sim::Time::seconds(30);

  // Field-wise, for spec round-trip checks and the chaos shrinker.
  friend bool operator==(const HostileConfig&,
                         const HostileConfig&) = default;
};

// Parses "name" or "name:key=val,key=val,...". Names: none,
// shallow-buffer, incast, flash-crowd, combined. Keys: queue, victim,
// fanin, burst, start, interval, at, conns, bytes, repeats, period
// (times in seconds, fractional allowed). Throws std::invalid_argument
// naming the offending token and its byte offset on anything else — this
// grammar is a fuzz surface.
HostileConfig parse_hostile_spec(const std::string& spec);

// Canonical spec string: the scenario name plus every key whose value
// differs from the default, in fixed key order.
// parse_hostile_spec(to_spec_string(config)) == config for every parsed
// config.
std::string to_spec_string(const HostileConfig& config);

// One host's side of a burst scenario (incast fan-in, flash crowd): at
// first_wave + k*period (absolute simulation times, so every source across
// every PoP fires in the same instant), for k < waves (0 = unbounded), open
// `connections` fresh connections spread round-robin over `targets` and
// push `bytes` down each. Fresh connections are the point: each one reads
// the route's initcwnd at SYN time, so a Riptide-boosted route turns the
// wave into synchronized line-rate bursts.
class BurstWaveSource {
 public:
  struct Schedule {
    sim::Time first_wave;
    sim::Time period;
    std::uint64_t waves = 0;  // 0 = unbounded
    int connections = 0;      // fresh connections per wave
    std::uint64_t bytes = 0;  // pushed down each connection
  };

  BurstWaveSource(sim::Simulator& sim, host::Host& host,
                  std::vector<net::Ipv4Address> targets, Schedule schedule);

  void start();

  std::uint64_t waves_fired() const { return waves_; }
  std::uint64_t connections_opened() const { return connections_; }
  std::uint64_t bytes_queued() const { return bytes_queued_; }

 private:
  void fire_wave();

  sim::Simulator& sim_;
  host::Host& host_;
  std::vector<net::Ipv4Address> targets_;
  Schedule schedule_;
  std::size_t next_target_ = 0;
  std::uint64_t waves_ = 0;
  std::uint64_t connections_ = 0;
  std::uint64_t bytes_queued_ = 0;
  bool started_ = false;
};

}  // namespace riptide::cdn
