#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/route_programmer.h"
#include "core/socket_stats_source.h"
#include "sim/random.h"

namespace riptide::faults {

// Thrown by FaultyRouteProgrammer for an injected actuator failure (the
// `ip route` invocation dying or timing out).
class ActuatorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FaultyActuatorStats {
  std::uint64_t ops_attempted = 0;
  std::uint64_t failures_injected = 0;
};

// Decorator over the agent's actuator: fails calls with a configurable
// probability (or deterministically via fail_next) — the transient
// `ip route` failures the agent's retry/backoff path must absorb. Each
// decorator owns a forked Rng so failure sequences are deterministic per
// agent and independent of the traffic workload.
class FaultyRouteProgrammer : public core::RouteProgrammer {
 public:
  FaultyRouteProgrammer(std::unique_ptr<core::RouteProgrammer> inner,
                        sim::Rng rng)
      : inner_(std::move(inner)), rng_(std::move(rng)) {}

  // Probability that any program/clear call throws ActuatorError.
  void set_failure_probability(double p) { failure_probability_ = p; }
  double failure_probability() const { return failure_probability_; }

  // Fails exactly the next `n` calls (before the probability is rolled).
  void fail_next(int n) { forced_failures_ = n; }

  void set_initial_windows(const net::Prefix& dst,
                           std::uint32_t initcwnd_segments,
                           std::uint32_t initrwnd_segments,
                           tcp::RouteCc cc = tcp::RouteCc::kUnset) override;
  void clear(const net::Prefix& dst) override;

  const FaultyActuatorStats& stats() const { return stats_; }

 private:
  void maybe_fail(const char* op);

  std::unique_ptr<core::RouteProgrammer> inner_;
  sim::Rng rng_;
  double failure_probability_ = 0.0;
  int forced_failures_ = 0;
  FaultyActuatorStats stats_;
};

struct FaultyPollStats {
  std::uint64_t polls_attempted = 0;
  std::uint64_t failures_injected = 0;
  std::uint64_t entries_dropped = 0;  // partial-snapshot omissions
};

// Decorator over the agent's `ss` surface: polls fail outright with a
// configurable probability (PollError — the tool dying), or silently omit
// each entry with a configurable probability (truncated output, the race
// `ss` itself has against connection churn).
class FaultySocketStatsSource : public core::SocketStatsSource {
 public:
  FaultySocketStatsSource(std::unique_ptr<core::SocketStatsSource> inner,
                          sim::Rng rng)
      : inner_(std::move(inner)), rng_(std::move(rng)) {}

  void set_failure_probability(double p) { failure_probability_ = p; }
  double failure_probability() const { return failure_probability_; }
  void set_partial_fraction(double f) { partial_fraction_ = f; }
  double partial_fraction() const { return partial_fraction_; }

  // Fails exactly the next `n` polls (before the probability is rolled).
  void fail_next(int n) { forced_failures_ = n; }

  std::vector<host::SocketInfo> poll() override;

  const FaultyPollStats& stats() const { return stats_; }

 private:
  std::unique_ptr<core::SocketStatsSource> inner_;
  sim::Rng rng_;
  double failure_probability_ = 0.0;
  double partial_fraction_ = 0.0;
  int forced_failures_ = 0;
  FaultyPollStats stats_;
};

}  // namespace riptide::faults
