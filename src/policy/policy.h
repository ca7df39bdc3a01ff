#pragma once

#include <cstdint>
#include <string>

#include "cdn/experiment.h"
#include "tcp/config.h"

namespace riptide::policy {

// The initial-window policy zoo (ROADMAP item 3). "Demystifying TCP
// Initial Window Configurations of CDNs" (PAPERS.md) measured real CDNs
// shipping static IW10–IW50+ at varied route granularities with no safety
// net; Riptide's adaptive EWMA is one point in that space. Each policy
// here configures a complete experiment so the bench can hold traffic and
// topology fixed while sweeping policy × granularity × hostile scenario.
enum class PolicyKind : std::uint8_t {
  kDefault,   // stock IW10 everywhere; no agent, no routes
  kStaticIw,  // one fixed initcwnd programmed for every destination group
  kAdaptive,  // Riptide's EWMA agent (optionally governed)
  kOracle,    // true path BDP read straight from the topology
};
const char* to_string(PolicyKind kind);

struct PolicySpec {
  PolicyKind kind = PolicyKind::kAdaptive;
  // kStaticIw: the window programmed for every destination group.
  std::uint32_t static_iw = 10;
  // Route granularity: 32 = per-host routes; 24/20/16 aggregate. Applies
  // to every kind that installs or learns routes.
  int prefix_length = 32;
  // kAdaptive only: arm the recommended SafetyGovernor pack (budget,
  // hysteresis, staged response).
  bool governed = false;
  // Congestion-control regime, "cc=<name>" in the grammar. For route-
  // installing kinds (static/oracle/adaptive) it is stamped onto every
  // programmed route; for kDefault it rewrites the host-wide TcpConfig so
  // a whole experiment can run under e.g. BBR-lite. kUnset = stock CUBIC.
  tcp::RouteCc cc = tcp::RouteCc::kUnset;
};

// Field-wise equality, for spec round-trip checks and the chaos shrinker.
bool operator==(const PolicySpec& a, const PolicySpec& b);

// Canonical spec name, e.g. "static-iw50@24", "adaptive-governed",
// "oracle@20,cc=bbr", "default". Round-trips through parse_policy.
std::string to_string(const PolicySpec& spec);

// Parses "default" | "static-iwN[@L]" | "adaptive[-governed][@L]" |
// "oracle[@L]", each optionally suffixed ",cc=<name>" with name in
// {reno, cubic, cubic-fast, bbr}; N in [1, 1000] and L in [8, 32]
// (default 32). Throws std::invalid_argument on anything else — fuzz
// surface.
PolicySpec parse_policy(const std::string& text);

// What a policy installer did at build time; retrieve from
// Experiment::extensions() (std::static_pointer_cast<PolicyInstallation>).
struct PolicyInstallation {
  PolicySpec spec;
  std::size_t routes_installed = 0;
};

// Rewrites `config` so the experiment runs under `spec`: flips
// riptide_enabled, sets the agent's granularity/governor knobs, and — for
// the static and oracle policies — appends an extension factory that
// programs one route per destination group on every host at build time.
// Call after the rest of the config (topology, traffic, hostile) is
// final: the oracle reads the topology config it finds here.
void apply_policy(cdn::ExperimentConfig& config, const PolicySpec& spec);

// The governed-adaptive SafetyGovernor pack, exposed so tests and docs
// pin the exact values: budget 300 segments, a 2-segment hysteresis band,
// and a 5% rollback threshold (over at least 200 packets) with the staged
// ladder and a 20 s cooldown.
void arm_recommended_governor(core::RiptideConfig& riptide);

}  // namespace riptide::policy
