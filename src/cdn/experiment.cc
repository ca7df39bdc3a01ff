#include "cdn/experiment.h"

#include <algorithm>
#include <stdexcept>

namespace riptide::cdn {

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  build();
}

void Experiment::build() {
  // The shallow bottleneck is a topology property, not a traffic source:
  // shrink the WAN queues before the world is built.
  if (config_.hostile.kind == HostileKind::kShallowBuffer ||
      config_.hostile.kind == HostileKind::kCombined) {
    config_.topology.wan_queue_packets = config_.hostile.queue_packets;
  }
  rng_ = std::make_unique<sim::Rng>(config_.seed);
  topology_ = std::make_unique<Topology>(sim_, config_.topology,
                                         config_.pop_specs);
  Topology& topo = *topology_;
  const std::size_t n = topo.pop_count();

  // Probe + sink servers on every host: any PoP can be asked for an object.
  for (host::Host* host : topo.all_hosts()) {
    probe_servers_.push_back(std::make_unique<ProbeServer>(
        *host, config_.probe.server_port, config_.probe.size_scale));
    probe_servers_.back()->start();
    sink_servers_.push_back(
        std::make_unique<SinkServer>(*host, config_.organic.sink_port));
    sink_servers_.back()->start();
  }

  // Probe clients on the configured source PoPs (default: all).
  std::vector<std::size_t> sources = config_.probe_source_pops;
  if (sources.empty()) {
    sources.resize(n);
    for (std::size_t i = 0; i < n; ++i) sources[i] = i;
  }
  const int hosts_per_pop = config_.topology.hosts_per_pop;
  for (std::size_t src : sources) {
    if (src >= n) throw std::invalid_argument("Experiment: bad source pop");
    for (int h = 0; h < hosts_per_pop; ++h) {
      std::vector<ProbeTarget> targets;
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (dst == src) continue;
        // Spread load across the destination PoP's hosts.
        const int target_host = h % hosts_per_pop;
        targets.push_back(ProbeTarget{
            topo.host(dst, static_cast<std::size_t>(target_host)).address(),
            static_cast<int>(dst),
            topo.base_rtt(src, dst).to_milliseconds()});
      }
      probe_clients_.push_back(std::make_unique<ProbeClient>(
          sim_, topo.host(src, static_cast<std::size_t>(h)),
          static_cast<int>(src), std::move(targets), config_.probe, metrics_,
          *rng_));
      probe_clients_.back()->start();
    }
  }

  // Organic traffic from the designated busy PoPs toward everyone else.
  for (std::size_t src : config_.organic_source_pops) {
    if (src >= n) throw std::invalid_argument("Experiment: bad organic pop");
    for (int h = 0; h < hosts_per_pop; ++h) {
      std::vector<net::Ipv4Address> targets;
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (dst == src) continue;
        targets.push_back(
            topo.host(dst, static_cast<std::size_t>(h % hosts_per_pop))
                .address());
      }
      organic_sources_.push_back(std::make_unique<OrganicSource>(
          sim_, topo.host(src, static_cast<std::size_t>(h)),
          std::move(targets), config_.organic, *rng_));
      organic_sources_.back()->start();
    }
  }

  // Adversarial traffic sources (incast fan-in, flash crowds). Gated so
  // a kNone config is bit-identical to previous releases.
  if (config_.hostile.kind != HostileKind::kNone) build_hostile();

  // Fluid cross-traffic on the WAN links of the designated source PoPs
  // (hybrid fidelity; see flow/flow_traffic.h). Gated so a disabled config
  // is bit-identical to previous releases.
  if (config_.flow_traffic.enabled) {
    std::vector<std::size_t> flow_sources = config_.flow_traffic.source_pops;
    if (flow_sources.empty()) {
      flow_sources.resize(n);
      for (std::size_t i = 0; i < n; ++i) flow_sources[i] = i;
    }
    for (std::size_t src : flow_sources) {
      if (src >= n) throw std::invalid_argument("Experiment: bad flow pop");
      for (std::size_t dst = 0; dst < n; ++dst) {
        if (dst == src) continue;
        flow_loads_.push_back(std::make_unique<flow::FlowLevelLoad>(
            sim_, topo.wan_link(src, dst), config_.flow_traffic.model,
            *rng_));
        flow_loads_.back()->start();
      }
    }
  }

  // One Riptide agent per host — fully distributed, no coordination.
  if (config_.riptide_enabled) {
    for (host::Host* host : topo.all_hosts()) {
      std::unique_ptr<core::RouteProgrammer> programmer;
      if (config_.route_programmer_factory) {
        programmer = config_.route_programmer_factory(*this, *host);
      }
      std::unique_ptr<core::SocketStatsSource> stats_source;
      if (config_.socket_stats_factory) {
        stats_source = config_.socket_stats_factory(*this, *host);
      }
      agents_.push_back(std::make_unique<core::RiptideAgent>(
          sim_, *host, config_.riptide, std::move(programmer),
          std::move(stats_source)));
      agents_.back()->start();
    }
  }

  // The `ss` window sampler (§IV-B1). All connections observed here were
  // created after Riptide started (the agents start at t=0).
  sim_.schedule_periodic(
      config_.cwnd_sample_interval, config_.cwnd_sample_interval, [this] {
        for (host::Host* host : topology_->all_hosts()) {
          const int pop = topology_->pop_of(host->address());
          for (const auto& info : host->socket_stats()) {
            if (info.state != tcp::TcpState::kEstablished) continue;
            if (info.bytes_acked < config_.min_bytes_for_cwnd_sample) continue;
            metrics_.record_cwnd(
                CwndSample{pop, info.cwnd_segments, sim_.now()});
          }
        }
      });

  for (const auto& factory : config_.extension_factories) {
    extensions_.push_back(factory ? factory(*this) : nullptr);
  }
}

// Hostile traffic shapes (src/cdn/hostile.h). The shallow-buffer half of
// kShallowBuffer/kCombined is the queue shrink at the top of build(); this
// builds the traffic half.
void Experiment::build_hostile() {
  Topology& topo = *topology_;
  const std::size_t n = topo.pop_count();
  const HostileConfig& hostile = config_.hostile;
  const int hosts_per_pop = config_.topology.hosts_per_pop;

  const bool incast = hostile.kind == HostileKind::kIncast ||
                      hostile.kind == HostileKind::kCombined;
  const bool crowd = hostile.kind == HostileKind::kFlashCrowd ||
                     hostile.kind == HostileKind::kCombined;

  if (incast) {
    if (hostile.victim_pop >= n) {
      throw std::invalid_argument("Experiment: hostile victim_pop out of range");
    }
    std::vector<net::Ipv4Address> victims;
    for (int h = 0; h < hosts_per_pop; ++h) {
      victims.push_back(
          topo.host(hostile.victim_pop, static_cast<std::size_t>(h))
              .address());
    }
    // Waves never stop: the fan-in repeats for the whole run.
    const BurstWaveSource::Schedule schedule{
        hostile.incast_start, hostile.incast_interval, 0,
        hostile.fanin_connections, hostile.burst_bytes};
    for (std::size_t pop = 0; pop < n; ++pop) {
      if (pop == hostile.victim_pop) continue;
      for (int h = 0; h < hosts_per_pop; ++h) {
        incast_sources_.push_back(std::make_unique<BurstWaveSource>(
            sim_, topo.host(pop, static_cast<std::size_t>(h)), victims,
            config_.organic.sink_port, schedule));
        incast_sources_.back()->start();
      }
    }
  }

  if (crowd) {
    // A crowd always fires at least its first wave.
    const BurstWaveSource::Schedule schedule{
        hostile.crowd_at, hostile.crowd_period,
        static_cast<std::uint64_t>(std::max(hostile.crowd_repeats, 1)),
        hostile.crowd_connections, hostile.crowd_bytes};
    for (std::size_t pop = 0; pop < n; ++pop) {
      for (int h = 0; h < hosts_per_pop; ++h) {
        std::vector<net::Ipv4Address> targets;
        for (std::size_t dst = 0; dst < n; ++dst) {
          if (dst == pop) continue;
          targets.push_back(
              topo.host(dst, static_cast<std::size_t>(h % hosts_per_pop))
                  .address());
        }
        flash_crowd_sources_.push_back(std::make_unique<BurstWaveSource>(
            sim_, topo.host(pop, static_cast<std::size_t>(h)),
            std::move(targets), config_.organic.sink_port, schedule));
        flash_crowd_sources_.back()->start();
      }
    }
  }
}

void Experiment::run() {
  // The sink is created lazily here (not in build()) so a never-run
  // experiment owns nothing, and installed only for the span of the event
  // loop: every emit site in tcp/core/net/faults sees it through
  // the thread-local slot, including on a ParallelRunner worker thread.
  if (config_.trace.enabled && trace_sink_ == nullptr) {
    trace_sink_ = std::make_unique<trace::TraceSink>(config_.trace);
  }
  trace::ScopedSink scoped(trace_sink_.get());
  sim_.run_until(config_.duration);
  if (trace_sink_ != nullptr && !config_.trace.export_path.empty()) {
    trace_sink_->write_jsonl(config_.trace.export_path);
  }
}

stats::Cdf Experiment::probe_cdf(int src_pop, std::uint64_t object_bytes,
                                 int dst_pop, bool fresh_only) const {
  return metrics_.completion_cdf([=](const FlowRecord& flow) {
    if (flow.src_pop != src_pop) return false;
    if (flow.object_bytes != object_bytes) return false;
    if (dst_pop >= 0 && flow.dst_pop != dst_pop) return false;
    if (fresh_only && !flow.fresh) return false;
    return true;
  });
}

std::vector<PercentileGain> percentile_gains(const stats::Cdf& baseline,
                                             const stats::Cdf& treatment,
                                             double step) {
  std::vector<PercentileGain> gains;
  if (baseline.empty() || treatment.empty() || step <= 0.0) return gains;
  for (double p = step; p < 100.0 - 1e-9; p += step) {
    const double base = baseline.percentile(p);
    const double treat = treatment.percentile(p);
    const double gain = base > 0.0 ? (base - treat) / base : 0.0;
    gains.push_back(PercentileGain{p, gain});
  }
  return gains;
}

}  // namespace riptide::cdn
