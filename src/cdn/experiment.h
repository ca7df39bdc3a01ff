#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cdn/hostile.h"
#include "cdn/metrics.h"
#include "cdn/pops.h"
#include "cdn/probe.h"
#include "cdn/topology.h"
#include "cdn/traffic.h"
#include "core/agent.h"
#include "core/config.h"
#include "flow/flow_traffic.h"
#include "sim/simulator.h"
#include "stats/cdf.h"
#include "trace/sink.h"

namespace riptide::cdn {

class Experiment;

// Hybrid-fidelity cross-traffic: fluid (flow-level) background load on WAN
// links while probe/organic traffic stays packet-level. One
// flow::FlowLevelLoad per WAN link.
struct FlowCrossTrafficConfig {
  bool enabled = false;
  flow::FlowTrafficConfig model{};
};

// A complete closed-loop scenario: the simulated CDN, probe mesh, optional
// organic traffic, optional Riptide agents on every host, and the periodic
// `ss` window sampler of §IV-B1. Running the same config with
// riptide_enabled on/off produces the treatment/control pairs behind
// Figures 10-16.
struct ExperimentConfig {
  std::vector<PopSpec> pop_specs = default_pop_specs();
  TopologyConfig topology{};

  bool riptide_enabled = true;
  core::RiptideConfig riptide{};

  ProbeClientConfig probe{};

  // PoPs that additionally generate organic back-office traffic (Fig 11's
  // "full traffic" PoP).
  std::vector<std::size_t> organic_source_pops{};
  OrganicSourceConfig organic{};

  sim::Time duration = sim::Time::minutes(3);

  FlowCrossTrafficConfig flow_traffic{};

  // Adversarial scenario (src/cdn/hostile.h). kNone (the default) adds
  // nothing and is bit-identical to previous releases; the shallow-buffer
  // variants also set topology.wan_queue_packets to hostile.queue_packets,
  // which build() does before the topology is built (so config() reads
  // the shrunk value).
  HostileConfig hostile{};

  // §IV-B1: windows of established connections sampled periodically (the
  // paper samples each minute over 12 h; scaled-down runs sample faster).
  sim::Time cwnd_sample_interval = sim::Time::seconds(15);

  std::uint64_t seed = 1;

  // Decision-audit tracing (src/trace). Off by default; when off, the run
  // is bit-identical to a build without the feature. When enabled the
  // experiment owns a TraceSink that is installed on the running thread
  // for exactly the duration of run(), and exported to
  // trace.export_path (JSONL) afterwards if one is set.
  trace::TraceConfig trace{};

  // Dependency-injection seams for fault harnesses and instrumented tests.
  // When set, build() asks the factory for each agent's actuator / `ss`
  // surface instead of the host-backed defaults. Factories must be pure
  // functions of their arguments (configs are copied across sweep workers).
  std::function<std::unique_ptr<core::RouteProgrammer>(Experiment&,
                                                       host::Host&)>
      route_programmer_factory;
  std::function<std::unique_ptr<core::SocketStatsSource>(Experiment&,
                                                         host::Host&)>
      socket_stats_factory;
  // Extensions, called in vector order at the end of build(), after
  // agents exist and started. They compose: policy installers
  // (src/policy) and a fault harness (src/faults, which puts itself
  // first) can ride the same experiment. Results are retained for the
  // experiment's lifetime (see extensions()).
  std::vector<std::function<std::shared_ptr<void>(Experiment&)>>
      extension_factories;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);

  // Runs the scenario for config.duration of simulated time.
  void run();

  const std::vector<std::unique_ptr<flow::FlowLevelLoad>>& flow_loads()
      const {
    return flow_loads_;
  }
  const std::vector<std::unique_ptr<OrganicSource>>& organic_sources() const {
    return organic_sources_;
  }
  const std::vector<std::unique_ptr<BurstWaveSource>>& incast_sources()
      const {
    return incast_sources_;
  }
  const std::vector<std::unique_ptr<BurstWaveSource>>& flash_crowd_sources()
      const {
    return flash_crowd_sources_;
  }
  // The probe mesh's clients (one per probing host), for accounting checks
  // (src/chaos) and instrumented tests.
  const std::vector<std::unique_ptr<ProbeClient>>& probe_clients() const {
    return probe_clients_;
  }

  const MetricsCollector& metrics() const { return metrics_; }
  Topology& topology() { return *topology_; }
  const Topology& topology() const { return *topology_; }
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }
  const ExperimentConfig& config() const { return config_; }
  const std::vector<std::unique_ptr<core::RiptideAgent>>& agents() const {
    return agents_;
  }

  // Results of extension_factories, one per factory, in factory order
  // (null for an empty factory).
  const std::vector<std::shared_ptr<void>>& extensions() const {
    return extensions_;
  }

  // The decision-audit sink, or null when config.trace.enabled is false.
  // Populated only while/after run() executes on this experiment.
  trace::TraceSink* trace_sink() { return trace_sink_.get(); }
  const trace::TraceSink* trace_sink() const { return trace_sink_.get(); }

  // Completion-time CDF (ms) for probes of `object_bytes` from `src_pop`,
  // optionally restricted to one destination PoP (dst_pop >= 0) and/or
  // fresh connections only.
  stats::Cdf probe_cdf(int src_pop, std::uint64_t object_bytes,
                       int dst_pop = -1, bool fresh_only = false) const;

 private:
  void build();
  void build_hostile();

  ExperimentConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Rng> rng_;
  std::unique_ptr<Topology> topology_;
  MetricsCollector metrics_;
  std::vector<std::unique_ptr<ProbeServer>> probe_servers_;
  std::vector<std::unique_ptr<SinkServer>> sink_servers_;
  std::vector<std::unique_ptr<ProbeClient>> probe_clients_;
  std::vector<std::unique_ptr<OrganicSource>> organic_sources_;
  std::vector<std::unique_ptr<BurstWaveSource>> incast_sources_;
  std::vector<std::unique_ptr<BurstWaveSource>> flash_crowd_sources_;
  std::vector<std::unique_ptr<flow::FlowLevelLoad>> flow_loads_;
  std::vector<std::unique_ptr<core::RiptideAgent>> agents_;
  std::vector<std::shared_ptr<void>> extensions_;
  std::unique_ptr<trace::TraceSink> trace_sink_;
};

// Percentile-by-percentile improvement of `treatment` over `baseline`
// (paper Figs 15/16): for each percentile p in {step, 2*step, ...,
// 100-step}, gain = (baseline_p - treatment_p) / baseline_p.
struct PercentileGain {
  double percentile = 0.0;
  double gain_fraction = 0.0;
};

std::vector<PercentileGain> percentile_gains(const stats::Cdf& baseline,
                                             const stats::Cdf& treatment,
                                             double step = 5.0);

}  // namespace riptide::cdn
