#include "policy/policy.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/route_programmer.h"
#include "sim/number.h"

namespace riptide::policy {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kDefault: return "default";
    case PolicyKind::kStaticIw: return "static-iw";
    case PolicyKind::kAdaptive: return "adaptive";
    case PolicyKind::kOracle: return "oracle";
  }
  return "?";
}

std::string to_string(const PolicySpec& spec) {
  std::string out;
  switch (spec.kind) {
    case PolicyKind::kDefault:
      out = "default";
      break;
    case PolicyKind::kStaticIw:
      out = "static-iw" + std::to_string(spec.static_iw);
      break;
    case PolicyKind::kAdaptive:
      out = spec.governed ? "adaptive-governed" : "adaptive";
      break;
    case PolicyKind::kOracle:
      out = "oracle";
      break;
  }
  if (spec.kind != PolicyKind::kDefault && spec.prefix_length != 32) {
    out += "@" + std::to_string(spec.prefix_length);
  }
  if (spec.cc != tcp::RouteCc::kUnset) {
    out += std::string(",cc=") + tcp::to_string(spec.cc);
  }
  return out;
}

namespace {

[[noreturn]] void bad_policy(const std::string& why, const std::string& token,
                             std::size_t offset) {
  throw std::invalid_argument("parse_policy: " + why + " at byte " +
                              std::to_string(offset) + ": '" + token + "'");
}

std::uint64_t parse_number(const std::string& text, std::uint64_t min,
                           std::uint64_t max, std::size_t offset) {
  const auto value = sim::read_u64(text);
  if (!value) bad_policy("bad number", text, offset);
  if (*value < min || *value > max) {
    bad_policy("number out of range", text, offset);
  }
  return *value;
}

}  // namespace

PolicySpec parse_policy(const std::string& full_text) {
  PolicySpec spec;
  // Strip the optional ",cc=<name>" suffix first; the remainder is the
  // historical grammar, untouched.
  std::string text = full_text;
  const auto comma = full_text.find(',');
  if (comma != std::string::npos) {
    const std::string suffix = full_text.substr(comma + 1);
    if (suffix.rfind("cc=", 0) != 0) {
      bad_policy("expected cc=<name> after ','", suffix, comma + 1);
    }
    const std::string name = suffix.substr(3);
    if (!tcp::parse_route_cc(name, spec.cc)) {
      bad_policy("unknown congestion control", name, comma + 4);
    }
    text = full_text.substr(0, comma);
  }
  const auto at = text.find('@');
  std::string base = text;
  if (at != std::string::npos) {
    base = text.substr(0, at);
    spec.prefix_length =
        static_cast<int>(parse_number(text.substr(at + 1), 8, 32, at + 1));
  }
  if (base == "default") {
    if (at != std::string::npos) {
      bad_policy("'default' takes no granularity", text.substr(at), at);
    }
    spec.kind = PolicyKind::kDefault;
  } else if (base == "adaptive") {
    spec.kind = PolicyKind::kAdaptive;
  } else if (base == "adaptive-governed") {
    spec.kind = PolicyKind::kAdaptive;
    spec.governed = true;
  } else if (base == "oracle") {
    spec.kind = PolicyKind::kOracle;
  } else if (base.rfind("static-iw", 0) == 0) {
    spec.kind = PolicyKind::kStaticIw;
    spec.static_iw = static_cast<std::uint32_t>(
        parse_number(base.substr(9), 1, 1000, 9));
  } else {
    bad_policy("unknown policy", base, 0);
  }
  return spec;
}

void arm_recommended_governor(core::RiptideConfig& riptide) {
  riptide.governor.budget_segments = 300;
  riptide.governor.hysteresis_segments = 2;
  riptide.governor.rollback_retrans_fraction = 0.05;
  riptide.governor.min_packets = 200;
  riptide.governor.cooldown = sim::Time::seconds(20);
  riptide.governor.staged_response = true;
}

namespace {

// Destination groups for an installing policy: every other host's address
// collapsed to /prefix_length, skipping groups that would cover the
// installing host itself (a route to your own PoP says nothing about the
// WAN and risks shadowing the LAN path with odd metrics).
std::map<net::Prefix, std::vector<net::Ipv4Address>, net::PrefixOrder>
destination_groups(cdn::Topology& topo, host::Host& self, int prefix_length) {
  std::map<net::Prefix, std::vector<net::Ipv4Address>, net::PrefixOrder>
      groups;
  for (host::Host* other : topo.all_hosts()) {
    if (other == &self) continue;
    const net::Prefix group =
        prefix_length == 32 ? net::Prefix::host(other->address())
                            : net::Prefix(other->address(), prefix_length);
    if (group.contains(self.address())) continue;
    groups[group].push_back(other->address());
  }
  return groups;
}

std::size_t install_static(cdn::Experiment& experiment,
                           const PolicySpec& spec) {
  std::size_t installed = 0;
  for (host::Host* host : experiment.topology().all_hosts()) {
    core::HostRouteProgrammer programmer(*host);
    for (const auto& [group, members] :
         destination_groups(experiment.topology(), *host,
                            spec.prefix_length)) {
      programmer.set_initial_windows(group, spec.static_iw, spec.static_iw,
                                     spec.cc);
      ++installed;
    }
  }
  return installed;
}

// The oracle reads what no deployable agent can: the true per-path BDP
// from the topology. Safe burst into an idle path ≈ BDP plus the slack
// half of the bottleneck queue; anything above that is queue overflow on
// the first flight.
std::size_t install_oracle(cdn::Experiment& experiment,
                           const PolicySpec& spec) {
  cdn::Topology& topo = experiment.topology();
  const auto& tconfig = topo.config();
  const double mss = static_cast<double>(tcp::kMss);
  std::size_t installed = 0;
  for (host::Host* host : topo.all_hosts()) {
    const int src_pop = topo.pop_of(host->address());
    core::HostRouteProgrammer programmer(*host);
    for (const auto& [group, members] :
         destination_groups(topo, *host, spec.prefix_length)) {
      // All members of a group share a destination PoP in the 10.i.0.0/16
      // layout; use the first member's PoP for the path.
      const int dst_pop = topo.pop_of(members.front());
      if (dst_pop < 0 || dst_pop == src_pop) continue;
      const double rtt_s =
          topo.base_rtt(static_cast<std::size_t>(src_pop),
                        static_cast<std::size_t>(dst_pop))
              .to_seconds();
      const double bdp_segments = tconfig.wan_rate_bps * rtt_s / 8.0 / mss;
      const double safe =
          bdp_segments +
          static_cast<double>(tconfig.wan_queue_packets) / 2.0;
      const auto window = static_cast<std::uint32_t>(
          std::clamp(std::lround(safe), 10l, 256l));
      programmer.set_initial_windows(group, window, window, spec.cc);
      ++installed;
    }
  }
  return installed;
}

}  // namespace

void apply_policy(cdn::ExperimentConfig& config, const PolicySpec& spec) {
  switch (spec.kind) {
    case PolicyKind::kDefault:
      config.riptide_enabled = false;
      // No routes to carry the regime: rewrite the host-wide TcpConfig so
      // "default,cc=bbr" means "the whole fleet runs BBR-lite, no agent".
      tcp::apply_route_cc(spec.cc, config.topology.host_tcp);
      break;
    case PolicyKind::kAdaptive:
      config.riptide_enabled = true;
      if (spec.prefix_length == 32) {
        config.riptide.granularity = core::Granularity::kHost;
      } else {
        config.riptide.granularity = core::Granularity::kPrefix;
        config.riptide.prefix_length = spec.prefix_length;
      }
      if (spec.governed) arm_recommended_governor(config.riptide);
      // The agent stamps the regime onto every route it learns; only
      // destinations Riptide actually programs switch controller.
      config.riptide.route_cc = spec.cc;
      break;
    case PolicyKind::kStaticIw:
    case PolicyKind::kOracle:
      config.riptide_enabled = false;
      config.extension_factories.push_back(
          [spec](cdn::Experiment& experiment) -> std::shared_ptr<void> {
            auto result = std::make_shared<PolicyInstallation>();
            result->spec = spec;
            result->routes_installed =
                spec.kind == PolicyKind::kStaticIw
                    ? install_static(experiment, spec)
                    : install_oracle(experiment, spec);
            return result;
          });
      break;
  }
}

}  // namespace riptide::policy
