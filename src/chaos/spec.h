#pragma once

#include <cstdint>
#include <string>

#include "cdn/experiment.h"
#include "cdn/hostile.h"
#include "faults/fault_plan.h"
#include "policy/policy.h"

namespace riptide::chaos {

// One fully-described chaos run: a point in the cross product of the
// repo's scenario grammars (fault plan x hostile scenario x policy zoo)
// plus the world-shape knobs the generators perturb. A spec is the unit
// of everything in src/chaos — generation, execution, violation
// reporting, delta-debugging — because it is (a) deterministic (the run
// is a pure function of the spec) and (b) serializable (a violation ships
// as a replayable text file, and the shrinker edits that text's parse).
struct ChaosSpec {
  // World shape. `pops` takes the first N of cdn::default_pop_specs().
  std::size_t pops = 4;
  int hosts = 1;
  double duration_s = 30.0;
  std::uint64_t seed = 1;
  double wan_loss = 0.0;

  // Scenario grammars, one sub-spec each (canonical string forms embed in
  // the spec file and round-trip through the sub-grammar parsers).
  policy::PolicySpec policy{};
  cdn::HostileConfig hostile{};
  faults::FaultPlan faults{};

  // Pin the run to the golden-determinism world (cdn::golden_config()):
  // the exact 4-PoP world whose knobs-off fingerprint is the repo's
  // golden CRC. When set, the world-shape fields above are forced to the
  // golden values at parse/generation time and the fingerprint oracle
  // arms (for seed 42).
  bool golden = false;

  // Intentional-regression hooks, so campaigns can prove the oracles
  // detect what they claim to. "" = none; "budget" = run_chaos_spec()
  // judges the configured budget but builds the world with the budget
  // switched off, as a governor whose enforcement silently regressed.
  std::string break_hook;

  // Override the governor budget (segments) after policy application;
  // 0 keeps the policy's value. Small budgets make the budget oracle's
  // job non-vacuous in short runs.
  std::uint32_t budget_override = 0;

  // The golden-determinism spec (seed 42, knobs off, fingerprint armed).
  static ChaosSpec golden_spec();

  // Parses the line-based `key=value` form produced by to_string().
  // Unknown keys, duplicate keys, out-of-range values, and semantic
  // inconsistencies (a fault naming a PoP the world doesn't have) throw
  // std::invalid_argument naming the offending token and its byte offset.
  // Blank lines and `#` comments are ignored.
  static ChaosSpec parse(const std::string& text);

  // Canonical serialization: fixed key order, every key emitted,
  // sub-grammars in their canonical string forms.
  // parse(to_string()) == *this for every valid spec.
  std::string to_string() const;

  // The complete experiment configuration for this spec: world shape,
  // policy, hostile scenario, fault harness installation, and
  // checkpointing when the plan crashes an agent (not the break hook,
  // which run_chaos_spec() applies).
  // Agents always reconcile routes so the route-consistency oracle has its
  // subject.
  cdn::ExperimentConfig to_config() const;

  // Whether any fault event crashes an agent: to_config() arms the
  // harness's periodic checkpoint exactly then.
  bool needs_persistence() const;

  // Field-wise, for the codec round-trip checks and the shrinker.
  friend bool operator==(const ChaosSpec&, const ChaosSpec&) = default;
};

}  // namespace riptide::chaos
