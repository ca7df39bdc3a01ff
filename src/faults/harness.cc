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
        std::make_unique<core::HostRouteProgrammer>(h),
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
  const sim::Time interval = experiment.config().riptide.checkpoint_interval;
  const bool checkpointed = interval > sim::Time::zero();
  for (const auto& agent : experiment.agents()) {
    FaultInjector::AgentHooks hooks;
    hooks.agent = agent.get();
    hooks.actuator = dynamic_cast<FaultyRouteProgrammer*>(&agent->programmer());
    hooks.stats_source =
        dynamic_cast<FaultySocketStatsSource*>(&agent->stats_source());
    if (checkpointed) {
      // The harness plays the role of durable storage: the copy lives
      // here, outside the agent, so it survives agent crash()/start()
      // cycles. A crashed agent has no table worth copying, so ticks
      // while it is down are skipped: the last good copy stays.
      checkpoints_.push_back(std::make_unique<Checkpoint>());
      Checkpoint* checkpoint = checkpoints_.back().get();
      experiment.simulator().schedule_periodic(
          interval, interval, [checkpoint, agent = agent.get()] {
            if (!agent->running()) return;
            checkpoint->table = agent->table();
            ++checkpoint->stats.checkpoints_written;
          });
      hooks.checkpoint = checkpoint;
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
  }
  return total;
}

CheckpointStats FaultHarness::checkpoint_totals() const {
  CheckpointStats total;
  for (const auto& checkpoint : checkpoints_) {
    const CheckpointStats& s = checkpoint->stats;
    total.checkpoints_written += s.checkpoints_written;
    total.restores += s.restores;
    total.records_recovered += s.records_recovered;
  }
  return total;
}

}  // namespace riptide::faults
