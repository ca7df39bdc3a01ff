#pragma once

#include <memory>
#include <vector>

#include "cdn/experiment.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "faults/faulty.h"

namespace riptide::faults {

// Glue between a FaultPlan and a cdn::Experiment. install() plants three
// factories on the config: every agent's actuator and `ss` surface get
// wrapped in the fault decorators (each with its own Rng forked from the
// experiment seed and the host address, so injection sequences are
// deterministic per host and independent of the workload), and the first
// extension factory builds the harness itself — which discovers the
// decorators on the constructed agents, registers them with a
// FaultInjector, keeps each agent's warm-restart checkpoint when
// config.riptide.checkpoint_interval is set, and arms the plan.
//
//   cdn::ExperimentConfig config = ...;
//   faults::FaultHarness::install(config, faults::FaultPlan::parse(spec));
//   cdn::Experiment experiment(config);
//   experiment.run();
//   auto* harness = faults::FaultHarness::from(experiment);
//
// Everything lives on the config by value/std::function, so configs remain
// copyable across sweep workers with no shared mutable state.
class FaultHarness {
 public:
  // Wires the decorators and the plan into `config`. The plan may be
  // empty (decorators installed but inert) — useful for bit-identity
  // comparisons of the no-fault path. The harness factory goes to the
  // front of config.extension_factories, so the harness is built before
  // any policy installer whichever was installed first; a second install()
  // replaces the first harness.
  static void install(cdn::ExperimentConfig& config, FaultPlan plan);

  // The harness attached by install(), or null when the experiment was
  // built without one (other extensions, such as policy installers, are
  // never mistaken for it).
  static FaultHarness* from(const cdn::Experiment& experiment);

  FaultInjector& injector() { return *injector_; }
  const FaultInjector& injector() const { return *injector_; }

  // Decorator counters aggregated across every agent.
  FaultyActuatorStats actuator_totals() const;
  FaultyPollStats poll_totals() const;
  // Checkpoint counters aggregated across every agent (all zero when
  // config.riptide.checkpoint_interval was 0 and none were kept).
  CheckpointStats checkpoint_totals() const;

 private:
  // The extension factory install() plants. A named type, so from() can
  // find the harness's slot by std::function::target.
  struct Factory;

  FaultHarness(cdn::Experiment& experiment, FaultPlan plan);

  // When the experiment's RiptideConfig asks for checkpointing, the
  // harness owns one checkpoint per agent (in agent order) and hands raw
  // pointers to the injector's hooks.
  std::vector<std::unique_ptr<Checkpoint>> checkpoints_;
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace riptide::faults
