#pragma once

#include <cstdint>
#include <string>

#include "cdn/experiment.h"

namespace riptide::cdn {

// The golden-determinism world: a compact 4-PoP closed-loop experiment
// with every agent hardening knob off and WAN loss *on*, so the
// RNG-coupled paths (random loss -> SACK -> retransmission) are part of
// its fingerprint. The determinism and tracing suites pin the CRC-32 of
// serialize_metrics() for this world at seed 42, and the chaos golden
// oracle checks the same value.
ExperimentConfig golden_config(std::uint64_t seed = 42);

// Every observable output of a run, bit-exactly: probe flows, cwnd
// samples, the agents' polls/connections/routes-set/routes-expired
// counters and the final simulated time. Integers are written raw and
// doubles with %.17g, so the fingerprint has no tolerance to hide drift
// in. Field order is part of the format; extend only by appending (and
// recapturing the golden).
std::string serialize_metrics(const Experiment& exp);

}  // namespace riptide::cdn
