#include "faults/faulty.h"

#include <string>
#include <utility>

namespace riptide::faults {

void FaultyRouteProgrammer::maybe_fail(const char* op) {
  ++stats_.ops_attempted;
  bool inject = false;
  if (forced_failures_ > 0) {
    --forced_failures_;
    inject = true;
  } else if (failure_probability_ > 0.0 &&
             rng_.bernoulli(failure_probability_)) {
    inject = true;
  }
  if (inject) {
    ++stats_.failures_injected;
    throw ActuatorError(std::string("injected actuator failure: ") + op);
  }
}

void FaultyRouteProgrammer::set_initial_windows(const net::Prefix& dst,
                                               std::uint32_t initcwnd_segments,
                                               std::uint32_t initrwnd_segments,
                                               tcp::RouteCc cc) {
  maybe_fail("set_initial_windows");
  inner_->set_initial_windows(dst, initcwnd_segments, initrwnd_segments, cc);
}

void FaultyRouteProgrammer::clear(const net::Prefix& dst) {
  maybe_fail("clear");
  inner_->clear(dst);
}

std::vector<host::SocketInfo> FaultySocketStatsSource::poll() {
  ++stats_.polls_attempted;
  bool inject = false;
  if (forced_failures_ > 0) {
    --forced_failures_;
    inject = true;
  } else if (failure_probability_ > 0.0 &&
             rng_.bernoulli(failure_probability_)) {
    inject = true;
  }
  if (inject) {
    ++stats_.failures_injected;
    throw core::PollError("injected poll failure");
  }
  auto snapshot = inner_->poll();
  if (partial_fraction_ > 0.0) {
    std::vector<host::SocketInfo> kept;
    kept.reserve(snapshot.size());
    for (auto& info : snapshot) {
      if (rng_.bernoulli(partial_fraction_)) {
        ++stats_.entries_dropped;
      } else {
        kept.push_back(std::move(info));
      }
    }
    snapshot = std::move(kept);
  }
  return snapshot;
}

}  // namespace riptide::faults
