#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/spec.h"

namespace riptide::chaos {

// One invariant breach observed while executing a spec. `oracle` is the
// stable name the shrinker keys on (a minimized repro must fail the SAME
// oracle, not merely fail); `detail` is human-facing context.
struct Violation {
  std::string oracle;
  std::string detail;

  friend bool operator==(const Violation&, const Violation&) = default;
};

// Everything a chaos run reports. The fingerprint is the CRC-32 of
// cdn::serialize_metrics() (the determinism suite's), computed for every
// run: campaign determinism checks compare it run-to-run, and for golden
// specs (seed 42) it is judged against the pinned golden CRC.
struct RunResult {
  std::vector<Violation> violations;
  std::uint32_t fingerprint = 0;
};

// Stable oracle names (see DESIGN.md "Chaos search & invariant oracles").
//   kOracleBudget       governor budget exceeded after a completed poll
//   kOracleRoute        live learned route inconsistent with the agent's
//                       installed view after reconciliation
//   kOracleZombie       installed route with no learned table entry — a
//                       window outside TTL control (also what a
//                       checkpoint restore resurrecting a withdrawn
//                       route produces)
//   kOracleStall        connection with bytes in flight and no RTO armed
//                       at teardown — data that can never complete
//   kOracleProbes       probe accounting identity broken (issued !=
//                       completed + failed + in-flight, or a stalled
//                       probe whose connection died unnoticed)
//   kOracleLeak         SegmentPool live count changed across the run
//   kOracleGolden       golden spec fingerprint != the pinned CRC
inline constexpr const char* kOracleBudget = "governor-budget";
inline constexpr const char* kOracleRoute = "route-consistency";
inline constexpr const char* kOracleZombie = "zombie-route";
inline constexpr const char* kOracleStall = "stalled-connection";
inline constexpr const char* kOracleProbes = "probe-accounting";
inline constexpr const char* kOracleLeak = "segment-leak";
inline constexpr const char* kOracleGolden = "golden-fingerprint";

// Builds the spec's experiment (with its break hook applied), arms the
// per-poll oracles on every agent (post-poll hooks run atomically inside
// the poll's event callback), runs it, then applies the teardown oracles
// (stall, probe accounting, golden fingerprint) and, after the experiment
// is destroyed, the segment-leak check. Deterministic: equal specs
// produce equal RunResults.
//
// Violations are deduplicated per (oracle, agent) — a budget regression
// violates every subsequent poll, and one witness per agent is what the
// shrinker needs.
RunResult run_chaos_spec(const ChaosSpec& spec);

}  // namespace riptide::chaos
