#include "cdn/hostile.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "tcp/connection.h"

namespace riptide::cdn {

const char* to_string(HostileKind kind) {
  switch (kind) {
    case HostileKind::kNone: return "none";
    case HostileKind::kShallowBuffer: return "shallow-buffer";
    case HostileKind::kIncast: return "incast";
    case HostileKind::kFlashCrowd: return "flash-crowd";
    case HostileKind::kCombined: return "combined";
  }
  return "?";
}

bool operator==(const HostileConfig& a, const HostileConfig& b) {
  return a.kind == b.kind && a.queue_packets == b.queue_packets &&
         a.victim_pop == b.victim_pop &&
         a.fanin_connections == b.fanin_connections &&
         a.burst_bytes == b.burst_bytes && a.incast_start == b.incast_start &&
         a.incast_interval == b.incast_interval && a.crowd_at == b.crowd_at &&
         a.crowd_connections == b.crowd_connections &&
         a.crowd_bytes == b.crowd_bytes &&
         a.crowd_repeats == b.crowd_repeats &&
         a.crowd_period == b.crowd_period;
}

namespace {

[[noreturn]] void bad_spec(const std::string& why, const std::string& token,
                           std::size_t offset) {
  throw std::invalid_argument("parse_hostile_spec: " + why + " at byte " +
                              std::to_string(offset) + ": '" + token + "'");
}

// Full-match numeric parsing: trailing garbage after the number is an
// error, not silently ignored — this grammar is a fuzz surface and every
// malformed input must land on the same typed exception.
std::uint64_t parse_u64(const std::string& text, std::uint64_t max,
                        std::size_t offset) {
  if (text.empty()) bad_spec("empty numeric value", text, offset);
  for (char c : text) {
    if (c < '0' || c > '9') bad_spec("bad integer", text, offset);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || value > max) {
    bad_spec("integer out of range", text, offset);
  }
  return value;
}

sim::Time parse_time_seconds(const std::string& text, std::size_t offset) {
  if (text.empty()) bad_spec("empty time value", text, offset);
  errno = 0;
  char* end = nullptr;
  const double seconds = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() ||
      !std::isfinite(seconds) || seconds < 0.0 || seconds > 1e6) {
    bad_spec("bad time", text, offset);
  }
  return sim::Time::from_seconds(seconds);
}

}  // namespace

HostileConfig parse_hostile_spec(const std::string& spec) {
  HostileConfig config;
  const auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  if (name == "none") {
    config.kind = HostileKind::kNone;
  } else if (name == "shallow-buffer") {
    config.kind = HostileKind::kShallowBuffer;
  } else if (name == "incast") {
    config.kind = HostileKind::kIncast;
  } else if (name == "flash-crowd") {
    config.kind = HostileKind::kFlashCrowd;
  } else if (name == "combined") {
    config.kind = HostileKind::kCombined;
  } else {
    bad_spec("unknown scenario", name, 0);
  }
  if (colon == std::string::npos) return config;

  std::size_t pos = colon + 1;  // byte offset of the current key=value pair
  if (pos >= spec.size()) bad_spec("empty option list", "", pos);
  while (pos < spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string pair = spec.substr(pos, comma - pos);
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad_spec("expected key=value", pair, pos);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    const std::size_t value_at = pos + eq + 1;
    if (key == "queue") {
      config.queue_packets = parse_u64(value, 1u << 20, value_at);
      if (config.queue_packets == 0) {
        bad_spec("queue must be >= 1", value, value_at);
      }
    } else if (key == "victim") {
      config.victim_pop = parse_u64(value, 1023, value_at);
    } else if (key == "fanin") {
      config.fanin_connections =
          static_cast<int>(parse_u64(value, 10'000, value_at));
      if (config.fanin_connections == 0) {
        bad_spec("fanin must be >= 1", value, value_at);
      }
    } else if (key == "burst") {
      config.burst_bytes = parse_u64(value, 1'000'000'000'000ull, value_at);
    } else if (key == "start") {
      config.incast_start = parse_time_seconds(value, value_at);
    } else if (key == "interval") {
      config.incast_interval = parse_time_seconds(value, value_at);
      if (config.incast_interval <= sim::Time::zero()) {
        bad_spec("interval must be > 0", value, value_at);
      }
    } else if (key == "at") {
      config.crowd_at = parse_time_seconds(value, value_at);
    } else if (key == "conns") {
      config.crowd_connections =
          static_cast<int>(parse_u64(value, 10'000, value_at));
      if (config.crowd_connections == 0) {
        bad_spec("conns must be >= 1", value, value_at);
      }
    } else if (key == "bytes") {
      config.crowd_bytes = parse_u64(value, 1'000'000'000'000ull, value_at);
    } else if (key == "repeats") {
      config.crowd_repeats =
          static_cast<int>(parse_u64(value, 1'000, value_at));
      if (config.crowd_repeats == 0) {
        bad_spec("repeats must be >= 1", value, value_at);
      }
    } else if (key == "period") {
      config.crowd_period = parse_time_seconds(value, value_at);
      if (config.crowd_period <= sim::Time::zero()) {
        bad_spec("period must be > 0", value, value_at);
      }
    } else {
      bad_spec("unknown option", key, pos);
    }
    pos = comma == spec.size() ? spec.size() : comma + 1;
  }
  return config;
}

std::string to_spec_string(const HostileConfig& config) {
  std::string out = to_string(config.kind);
  const HostileConfig defaults;
  std::string opts;
  const auto add = [&](const char* key, const std::string& value) {
    if (!opts.empty()) opts += ",";
    opts += std::string(key) + "=" + value;
  };
  if (config.queue_packets != defaults.queue_packets) {
    add("queue", std::to_string(config.queue_packets));
  }
  if (config.victim_pop != defaults.victim_pop) {
    add("victim", std::to_string(config.victim_pop));
  }
  if (config.fanin_connections != defaults.fanin_connections) {
    add("fanin", std::to_string(config.fanin_connections));
  }
  if (config.burst_bytes != defaults.burst_bytes) {
    add("burst", std::to_string(config.burst_bytes));
  }
  if (config.incast_start != defaults.incast_start) {
    add("start", sim::shortest_seconds(config.incast_start));
  }
  if (config.incast_interval != defaults.incast_interval) {
    add("interval", sim::shortest_seconds(config.incast_interval));
  }
  if (config.crowd_at != defaults.crowd_at) {
    add("at", sim::shortest_seconds(config.crowd_at));
  }
  if (config.crowd_connections != defaults.crowd_connections) {
    add("conns", std::to_string(config.crowd_connections));
  }
  if (config.crowd_bytes != defaults.crowd_bytes) {
    add("bytes", std::to_string(config.crowd_bytes));
  }
  if (config.crowd_repeats != defaults.crowd_repeats) {
    add("repeats", std::to_string(config.crowd_repeats));
  }
  if (config.crowd_period != defaults.crowd_period) {
    add("period", sim::shortest_seconds(config.crowd_period));
  }
  if (!opts.empty()) out += ":" + opts;
  return out;
}

namespace {

// Open one fresh connection, push `bytes` once established, then close.
// Fresh-per-burst is the whole scenario: every connection reads the
// route's initcwnd at SYN time. The holder keeps the connection pointer
// alive for the callback without a use-after-free if establishment loses
// to teardown (the host owns the connection either way).
void launch_burst(host::Host& host, net::Ipv4Address target,
                  std::uint16_t port, std::uint64_t bytes) {
  auto holder = std::make_shared<tcp::TcpConnection*>(nullptr);
  tcp::TcpConnection::Callbacks cbs;
  cbs.on_established = [holder, bytes] {
    if (*holder == nullptr) return;
    (*holder)->send(bytes);
    (*holder)->close();
  };
  cbs.on_closed = [holder](bool /*reset*/) { *holder = nullptr; };
  *holder = &host.connect(target, port, std::move(cbs));
}

}  // namespace

BurstWaveSource::BurstWaveSource(sim::Simulator& sim, host::Host& host,
                                 std::vector<net::Ipv4Address> targets,
                                 std::uint16_t sink_port, Schedule schedule)
    : sim_(sim),
      host_(host),
      targets_(std::move(targets)),
      sink_port_(sink_port),
      schedule_(schedule) {}

void BurstWaveSource::start() {
  if (started_ || targets_.empty()) return;
  started_ = true;
  // Absolute phase: every source computes the same schedule, so the waves
  // from every source host land in the same instant.
  const sim::Time delay = schedule_.first_wave > sim_.now()
                              ? schedule_.first_wave - sim_.now()
                              : sim::Time::zero();
  sim_.schedule(delay, [this] { fire_wave(); });
}

void BurstWaveSource::fire_wave() {
  ++waves_;
  for (int i = 0; i < schedule_.connections; ++i) {
    ++connections_;
    bytes_queued_ += schedule_.bytes;
    launch_burst(host_, targets_[next_target_], sink_port_, schedule_.bytes);
    next_target_ = (next_target_ + 1) % targets_.size();
  }
  if (schedule_.waves == 0 || waves_ < schedule_.waves) {
    sim_.schedule(schedule_.period, [this] { fire_wave(); });
  }
}

}  // namespace riptide::cdn
