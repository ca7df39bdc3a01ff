#include "faults/harness.h"

#include <utility>

namespace riptide::faults {

namespace {

// Distinct fork salts for the two decorator streams on one host.
constexpr std::uint64_t kActuatorSalt = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kPollSalt = 0xc2b2ae3d27d4eb4full;

sim::Rng decorator_rng(const cdn::Experiment& experiment,
                       const host::Host& host, std::uint64_t salt) {
  // Seeded from (config seed, host address, stream salt) only — never from
  // a live Rng — so sweep workers materializing copies of one config get
  // identical, uncorrelated streams regardless of build order.
  sim::Rng base(experiment.config().seed);
  return base.fork(salt ^ static_cast<std::uint64_t>(host.address().value()));
}

}  // namespace

struct FaultHarness::Factory {
  FaultPlan plan;

  std::shared_ptr<void> operator()(cdn::Experiment& e) const {
    return std::shared_ptr<void>(new FaultHarness(e, plan));
  }
};

void FaultHarness::install(cdn::ExperimentConfig& config, FaultPlan plan) {
  config.route_programmer_factory = [](cdn::Experiment& e, host::Host& h) {
    return std::make_unique<FaultyRouteProgrammer>(
        e.simulator(), std::make_unique<core::HostRouteProgrammer>(h),
        decorator_rng(e, h, kActuatorSalt));
  };
  config.socket_stats_factory = [](cdn::Experiment& e, host::Host& h) {
    return std::make_unique<FaultySocketStatsSource>(
        std::make_unique<core::HostSocketStatsSource>(h),
        decorator_rng(e, h, kPollSalt));
  };
  auto& factories = config.extension_factories;
  std::erase_if(factories, [](const auto& f) {
    return f.template target<Factory>() != nullptr;
  });
  factories.insert(factories.begin(), Factory{std::move(plan)});
}

FaultHarness* FaultHarness::from(const cdn::Experiment& experiment) {
  // extensions() holds one result per factory, in factory order.
  const auto& factories = experiment.config().extension_factories;
  const auto& extensions = experiment.extensions();
  for (std::size_t i = 0; i < factories.size() && i < extensions.size();
       ++i) {
    if (factories[i].target<Factory>() != nullptr) {
      return static_cast<FaultHarness*>(extensions[i].get());
    }
  }
  return nullptr;
}

FaultHarness::FaultHarness(cdn::Experiment& experiment, FaultPlan plan) {
  injector_ = std::make_unique<FaultInjector>(experiment.simulator(),
                                              experiment.topology(),
                                              std::move(plan));
  const core::RiptideConfig& riptide = experiment.config().riptide;
  const bool persist_state = riptide.checkpoint_interval > sim::Time::zero();
  for (const auto& agent : experiment.agents()) {
    FaultInjector::AgentHooks hooks;
    hooks.agent = agent.get();
    hooks.actuator = dynamic_cast<FaultyRouteProgrammer*>(&agent->programmer());
    hooks.stats_source =
        dynamic_cast<FaultySocketStatsSource*>(&agent->stats_source());
    if (persist_state) {
      // The harness plays the role of durable storage: stores live here,
      // outside the agent, so they survive agent crash()/start() cycles
      // exactly as files on disk survive a process.
      // Two generations, so a corrupted newest snapshot still leaves a
      // fallback.
      stores_.push_back(std::make_unique<persist::MemorySnapshotStore>(2));
      checkpointers_.push_back(std::make_unique<persist::AgentCheckpointer>(
          experiment.simulator(), *agent, *stores_.back(),
          persist::CheckpointerConfig{riptide.checkpoint_interval}));
      checkpointers_.back()->start();
      hooks.checkpointer = checkpointers_.back().get();
    }
    injector_->register_agent(hooks);
  }
  injector_->arm();
}

FaultyActuatorStats FaultHarness::actuator_totals() const {
  FaultyActuatorStats total;
  for (const auto& hooks : injector_->hooks()) {
    if (hooks.actuator == nullptr) continue;
    const FaultyActuatorStats& s = hooks.actuator->stats();
    total.ops_attempted += s.ops_attempted;
    total.failures_injected += s.failures_injected;
    total.ops_delayed += s.ops_delayed;
  }
  return total;
}

persist::CheckpointerStats FaultHarness::checkpointer_totals() const {
  persist::CheckpointerStats total;
  for (const auto& checkpointer : checkpointers_) {
    const persist::CheckpointerStats& s = checkpointer->stats();
    total.checkpoints_written += s.checkpoints_written;
    total.bytes_written += s.bytes_written;
    total.restores += s.restores;
    total.snapshots_rejected += s.snapshots_rejected;
    total.records_recovered += s.records_recovered;
    total.records_discarded += s.records_discarded;
    total.truncated_tails += s.truncated_tails;
  }
  return total;
}

FaultyPollStats FaultHarness::poll_totals() const {
  FaultyPollStats total;
  for (const auto& hooks : injector_->hooks()) {
    if (hooks.stats_source == nullptr) continue;
    const FaultyPollStats& s = hooks.stats_source->stats();
    total.polls_attempted += s.polls_attempted;
    total.failures_injected += s.failures_injected;
    total.entries_dropped += s.entries_dropped;
  }
  return total;
}

}  // namespace riptide::faults
