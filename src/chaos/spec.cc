#include "chaos/spec.h"

#include <cerrno>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "cdn/golden.h"
#include "cdn/pops.h"
#include "faults/harness.h"

namespace riptide::chaos {

namespace {

[[noreturn]] void bad_spec(const std::string& why, const std::string& token,
                           std::size_t offset) {
  throw std::invalid_argument("ChaosSpec::parse: " + why + " at byte " +
                              std::to_string(offset) + ": '" + token + "'");
}

std::uint64_t parse_u64(const std::string& text, std::uint64_t min,
                        std::uint64_t max, std::size_t offset) {
  if (text.empty()) bad_spec("empty number", text, offset);
  for (char c : text) {
    if (c < '0' || c > '9') bad_spec("bad integer", text, offset);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || value < min ||
      value > max) {
    bad_spec("integer out of range", text, offset);
  }
  return value;
}

double parse_double(const std::string& text, double min, double max,
                    std::size_t offset) {
  if (text.empty()) bad_spec("empty number", text, offset);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() || !(value >= min) ||
      !(value <= max)) {
    bad_spec("number out of range", text, offset);
  }
  return value;
}

// Rethrows a sub-grammar parse error anchored at the embedding spec's
// value offset, so a campaign log points into the chaos spec file, not
// into a string nobody can see.
[[noreturn]] void bad_sub_spec(const char* key, const std::exception& err,
                               std::size_t value_offset) {
  throw std::invalid_argument("ChaosSpec::parse: " + std::string(key) + ": " +
                              err.what() + " (value starts at byte " +
                              std::to_string(value_offset) + ")");
}

}  // namespace

bool operator==(const ChaosSpec& a, const ChaosSpec& b) {
  return a.pops == b.pops && a.hosts == b.hosts &&
         a.duration_s == b.duration_s && a.seed == b.seed &&
         a.wan_loss == b.wan_loss && a.policy == b.policy &&
         a.hostile == b.hostile && a.faults == b.faults &&
         a.golden == b.golden && a.break_hook == b.break_hook &&
         a.budget_override == b.budget_override;
}

ChaosSpec ChaosSpec::golden_spec() {
  ChaosSpec spec;
  spec.golden = true;
  spec.pops = 4;
  spec.hosts = 1;
  spec.duration_s = 60.0;
  spec.seed = 42;
  spec.wan_loss = 2e-4;
  return spec;
}

bool ChaosSpec::needs_persistence() const {
  for (const auto& event : faults.events()) {
    if (event.kind == faults::FaultKind::kAgentCrash) return true;
  }
  return false;
}

ChaosSpec ChaosSpec::parse(const std::string& text) {
  ChaosSpec spec;
  std::set<std::string> seen;
  std::size_t faults_at = 0;
  std::size_t hostile_at = 0;

  std::size_t line_start = 0;
  while (line_start <= text.size()) {
    auto line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    const std::size_t at = line_start;
    line_start = line_end + 1;
    if (line.empty() || line[0] == '#') {
      if (line_end == text.size()) break;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad_spec("expected key=value", line, at);
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    const std::size_t value_at = at + eq + 1;
    if (!seen.insert(key).second) bad_spec("duplicate key", key, at);

    if (key == "pops") {
      spec.pops = parse_u64(value, 2, 8, value_at);
    } else if (key == "hosts") {
      spec.hosts = static_cast<int>(parse_u64(value, 1, 8, value_at));
    } else if (key == "duration") {
      spec.duration_s = parse_double(value, 1.0, 600.0, value_at);
    } else if (key == "seed") {
      spec.seed = parse_u64(value, 0, UINT64_MAX, value_at);
    } else if (key == "wan_loss") {
      spec.wan_loss = parse_double(value, 0.0, 0.5, value_at);
    } else if (key == "policy") {
      try {
        spec.policy = policy::parse_policy(value);
      } catch (const std::exception& err) {
        bad_sub_spec("policy", err, value_at);
      }
    } else if (key == "hostile") {
      hostile_at = value_at;
      try {
        spec.hostile = cdn::parse_hostile_spec(value);
      } catch (const std::exception& err) {
        bad_sub_spec("hostile", err, value_at);
      }
    } else if (key == "faults") {
      faults_at = value_at;
      try {
        spec.faults = faults::FaultPlan::parse(value);
      } catch (const std::exception& err) {
        bad_sub_spec("faults", err, value_at);
      }
    } else if (key == "golden") {
      spec.golden = parse_u64(value, 0, 1, value_at) != 0;
    } else if (key == "break") {
      if (!value.empty() && value != "budget") {
        bad_spec("unknown break hook", value, value_at);
      }
      spec.break_hook = value;
    } else if (key == "budget") {
      spec.budget_override =
          static_cast<std::uint32_t>(parse_u64(value, 0, 1'000'000, value_at));
    } else {
      bad_spec("unknown key", key, at);
    }
    if (line_end == text.size()) break;
  }

  // The golden shape is pinned, not configurable: a spec that says
  // golden=1 *is* the determinism-suite world (canonicalized here so the
  // shrinker and hand-edited files can't half-change it).
  if (spec.golden) {
    const std::uint64_t seed = spec.seed;
    spec = golden_spec();
    spec.seed = seed;
    return spec;
  }

  // Semantic cross-checks the sub-grammars can't do alone: every PoP /
  // host a sub-spec names must exist in this spec's world.
  if ((spec.hostile.kind == cdn::HostileKind::kIncast ||
       spec.hostile.kind == cdn::HostileKind::kCombined) &&
      spec.hostile.victim_pop >= spec.pops) {
    bad_spec("hostile victim PoP out of range",
             std::to_string(spec.hostile.victim_pop), hostile_at);
  }
  const int total_hosts = static_cast<int>(spec.pops) * spec.hosts;
  for (const auto& event : spec.faults.events()) {
    switch (event.kind) {
      case faults::FaultKind::kLinkDown:
      case faults::FaultKind::kLinkUp:
      case faults::FaultKind::kLinkFlap:
      case faults::FaultKind::kLossBurst:
      case faults::FaultKind::kRateChange:
      case faults::FaultKind::kDelayChange:
        if (event.pop_a >= spec.pops || event.pop_b >= spec.pops) {
          bad_spec("fault link PoP out of range",
                   std::to_string(event.pop_a) + "-" +
                       std::to_string(event.pop_b),
                   faults_at);
        }
        break;
      case faults::FaultKind::kAgentCrash:
      case faults::FaultKind::kRouteDrift:
        if (event.host_index >= total_hosts) {
          bad_spec("fault host index out of range",
                   std::to_string(event.host_index), faults_at);
        }
        break;
      default:
        break;
    }
  }
  return spec;
}

std::string ChaosSpec::to_string() const {
  std::string out = "# riptide chaos spec v1\n";
  out += "pops=" + std::to_string(pops) + "\n";
  out += "hosts=" + std::to_string(hosts) + "\n";
  out += "duration=" + sim::shortest_decimal(duration_s) + "\n";
  out += "seed=" + std::to_string(seed) + "\n";
  out += "wan_loss=" + sim::shortest_decimal(wan_loss) + "\n";
  out += "policy=" + policy::to_string(policy) + "\n";
  out += "hostile=" + cdn::to_spec_string(hostile) + "\n";
  out += "faults=" + faults::to_spec_string(faults) + "\n";
  out += "golden=" + std::string(golden ? "1" : "0") + "\n";
  out += "break=" + break_hook + "\n";
  out += "budget=" + std::to_string(budget_override) + "\n";
  return out;
}

cdn::ExperimentConfig ChaosSpec::to_config() const {
  // The fingerprint oracle compares golden runs against the determinism
  // suite's pinned CRC, so they use the very same world.
  if (golden) return cdn::golden_config(seed);

  cdn::ExperimentConfig config;
  const auto& all_specs = cdn::default_pop_specs();
  config.pop_specs.assign(
      all_specs.begin(),
      all_specs.begin() + static_cast<std::ptrdiff_t>(pops));
  config.topology.hosts_per_pop = hosts;
  config.topology.wan_loss_probability = wan_loss;
  config.topology.seed = seed;
  config.seed = seed;
  config.duration = sim::Time::from_seconds(duration_s);
  config.riptide.update_interval = sim::Time::seconds(1);
  config.riptide.c_max = 100;
  config.probe.interval = sim::Time::seconds(5);
  config.probe.idle_close = sim::Time::seconds(10);
  config.cwnd_sample_interval = sim::Time::seconds(10);

  policy::apply_policy(config, policy);
  if (config.riptide_enabled) {
    // Reconciliation is always on in chaos runs: the route-consistency
    // oracle judges the table *after* the reconciler had its say, so a
    // drifted route that survives is a real repair failure, not a
    // feature left off.
    config.riptide.reconcile_routes = true;
    if (needs_persistence()) {
      config.riptide.checkpoint_interval = sim::Time::seconds(5);
    }
    if (budget_override > 0) {
      config.riptide.governor.budget_segments = budget_override;
    }
    if (break_hook == "budget") {
      config.riptide.test_skip_budget_enforcement = true;
    }
  }

  config.hostile = hostile;

  if (!faults.empty()) {
    faults::FaultHarness::install(config, faults);
  }
  return config;
}

}  // namespace riptide::chaos
