#include "cdn/golden.h"

#include <cinttypes>
#include <cstdio>

namespace riptide::cdn {

ExperimentConfig golden_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.pop_specs = {{"lon", Continent::kEurope, {51.51, -0.13}},
                      {"fra", Continent::kEurope, {50.11, 8.68}},
                      {"nyc", Continent::kNorthAmerica, {40.71, -74.01}},
                      {"tyo", Continent::kAsia, {35.68, 139.69}}};
  config.topology.hosts_per_pop = 1;
  config.topology.wan_loss_probability = 2e-4;
  config.topology.seed = seed;
  config.riptide_enabled = true;
  config.riptide.update_interval = sim::Time::seconds(1);
  config.riptide.c_max = 100;
  config.probe.interval = sim::Time::seconds(5);
  config.probe.idle_close = sim::Time::seconds(10);
  config.duration = sim::Time::seconds(60);
  config.cwnd_sample_interval = sim::Time::seconds(10);
  config.seed = seed;
  return config;
}

std::string serialize_metrics(const Experiment& exp) {
  std::string out;
  out.reserve(1 << 16);
  char line[256];
  for (const auto& f : exp.metrics().flows()) {
    std::snprintf(line, sizeof line,
                  "F,%d,%d,%" PRIu64 ",%" PRId64 ",%" PRId64 ",%d,%.17g\n",
                  f.src_pop, f.dst_pop, f.object_bytes, f.started.ns(),
                  f.duration.ns(), f.fresh ? 1 : 0, f.base_rtt_ms);
    out += line;
  }
  for (const auto& s : exp.metrics().cwnd_samples()) {
    std::snprintf(line, sizeof line, "W,%d,%u,%" PRId64 "\n", s.pop,
                  s.cwnd_segments, s.at.ns());
    out += line;
  }
  for (const auto& agent : exp.agents()) {
    const auto& st = agent->stats();
    std::snprintf(line, sizeof line,
                  "A,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                  st.polls, st.connections_observed, st.routes_set,
                  st.routes_expired);
    out += line;
  }
  // Deliberately NOT fingerprinted: simulator().events_executed(). The
  // event count is harness bookkeeping, not simulation output — lazy
  // timers and the link completion ring change how many events run while
  // producing the same simulated behavior, and pinning it would veto
  // exactly the optimizations the fingerprint exists to keep honest.
  std::snprintf(line, sizeof line, "S,%" PRId64 "\n",
                exp.simulator().now().ns());
  out += line;
  return out;
}

}  // namespace riptide::cdn
