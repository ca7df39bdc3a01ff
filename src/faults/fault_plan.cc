#include "faults/fault_plan.h"

#include <cctype>
#include <cmath>
#include <stdexcept>
#include <string>

namespace riptide::faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kLossBurst: return "loss-burst";
    case FaultKind::kRateChange: return "rate-change";
    case FaultKind::kDelayChange: return "delay-change";
    case FaultKind::kActuatorFail: return "actuator-fail";
    case FaultKind::kPollFail: return "poll-fail";
    case FaultKind::kPollPartial: return "poll-partial";
    case FaultKind::kAgentCrash: return "agent-crash";
    case FaultKind::kRouteDrift: return "route-drift";
  }
  return "unknown";
}

namespace {

FaultEvent event(sim::Time at, FaultKind kind, std::size_t a = 0,
                 std::size_t b = 0) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.pop_a = a;
  ev.pop_b = b;
  return ev;
}

}  // namespace

FaultPlan& FaultPlan::link_down(sim::Time at, std::size_t a, std::size_t b) {
  return add(event(at, FaultKind::kLinkDown, a, b));
}

FaultPlan& FaultPlan::link_up(sim::Time at, std::size_t a, std::size_t b) {
  return add(event(at, FaultKind::kLinkUp, a, b));
}

FaultPlan& FaultPlan::link_flap(sim::Time at, std::size_t a, std::size_t b,
                                sim::Time period, int transitions) {
  FaultEvent ev = event(at, FaultKind::kLinkFlap, a, b);
  ev.duration = period;
  ev.count = transitions;
  return add(ev);
}

FaultPlan& FaultPlan::loss_burst(sim::Time at, std::size_t a, std::size_t b,
                                 double probability, sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kLossBurst, a, b);
  ev.value = probability;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::rate_factor(sim::Time at, std::size_t a, std::size_t b,
                                  double factor, sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kRateChange, a, b);
  ev.value = factor;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::extra_delay(sim::Time at, std::size_t a, std::size_t b,
                                  double extra_ms, sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kDelayChange, a, b);
  ev.value = extra_ms;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::actuator_failures(sim::Time at, double probability,
                                        sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kActuatorFail);
  ev.value = probability;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::poll_failures(sim::Time at, double probability,
                                    sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kPollFail);
  ev.value = probability;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::poll_partial(sim::Time at, double drop_fraction,
                                   sim::Time duration) {
  FaultEvent ev = event(at, FaultKind::kPollPartial);
  ev.value = drop_fraction;
  ev.duration = duration;
  return add(ev);
}

FaultPlan& FaultPlan::agent_crash(sim::Time at, int host_index,
                                  sim::Time downtime, bool warm,
                                  bool flush_routes) {
  FaultEvent ev = event(at, FaultKind::kAgentCrash);
  ev.host_index = host_index;
  ev.duration = downtime;
  ev.warm = warm;
  ev.flush_routes = flush_routes;
  return add(ev);
}

FaultPlan& FaultPlan::route_drift(sim::Time at, int host_index,
                                  double delete_fraction,
                                  double mangle_fraction) {
  FaultEvent ev = event(at, FaultKind::kRouteDrift);
  ev.host_index = host_index;
  ev.value = delete_fraction;
  ev.value2 = mangle_fraction;
  return add(ev);
}

bool operator==(const FaultEvent& a, const FaultEvent& b) {
  return a.at == b.at && a.kind == b.kind && a.pop_a == b.pop_a &&
         a.pop_b == b.pop_b && a.value == b.value && a.value2 == b.value2 &&
         a.duration == b.duration && a.count == b.count &&
         a.host_index == b.host_index && a.warm == b.warm &&
         a.flush_routes == b.flush_routes;
}

namespace {

// A token plus its byte offset in the full spec string, so every parse
// error can localize the failure ("at byte N: 'token'") — required by the
// --validate-only surface and by the fuzz harness triage workflow.
struct Token {
  std::string text;
  std::size_t offset = 0;
};

[[noreturn]] void fail(const std::string& what, const Token& tok) {
  throw std::invalid_argument("FaultPlan::parse: " + what + " at byte " +
                              std::to_string(tok.offset) + ": '" + tok.text +
                              "'");
}

// Bounds every number meets before it becomes a Time or an integer: a
// double outside the target type's range makes that conversion undefined.
// Times and durations share the hostile grammar's [0, 1e6] s.
constexpr double kMaxSeconds = 1e6;
constexpr double kMaxIndex = 1e6;        // PoP and host indices, flap counts
constexpr double kMinRateFactor = 1e-6;  // 10 Gbps slows to 10 kbps at most
constexpr double kMaxRateFactor = 1e6;

// A finite number spanning the whole token.
double parse_number(const Token& token) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token.text, &consumed);
  } catch (...) {
    fail("bad number", token);
  }
  if (consumed != token.text.size()) fail("bad number", token);
  if (!std::isfinite(value)) fail("non-finite number", token);
  return value;
}

// True for a whole number in [min, kMaxIndex], which casts to int safely.
bool whole_in_range(double value, double min) {
  return value >= min && value <= kMaxIndex && value == std::floor(value);
}

// "A-B" -> PoP pair.
void parse_link(const Token& token, std::size_t& a, std::size_t& b) {
  const auto dash = token.text.find('-');
  if (dash == std::string::npos || dash == 0 ||
      dash + 1 >= token.text.size()) {
    fail("bad link (want A-B)", token);
  }
  const double da =
      parse_number({token.text.substr(0, dash), token.offset});
  const double db =
      parse_number({token.text.substr(dash + 1), token.offset + dash + 1});
  if (!whole_in_range(da, 0) || !whole_in_range(db, 0)) {
    fail("bad link (want nonnegative integers)", token);
  }
  a = static_cast<std::size_t>(da);
  b = static_cast<std::size_t>(db);
  if (a == b) fail("bad link (identical endpoints)", token);
}

}  // namespace

std::string to_spec_string(const FaultPlan& plan) {
  using sim::shortest_decimal;
  using sim::shortest_seconds;
  std::string out;
  for (const FaultEvent& ev : plan.events()) {
    if (!out.empty()) out += "; ";
    out += "@" + shortest_seconds(ev.at) + " ";
    const std::string link = std::to_string(ev.pop_a) + "-" +
                             std::to_string(ev.pop_b);
    switch (ev.kind) {
      case FaultKind::kLinkDown:
        out += "down " + link;
        break;
      case FaultKind::kLinkUp:
        out += "up " + link;
        break;
      case FaultKind::kLinkFlap:
        out += "flap " + link + " " + shortest_seconds(ev.duration) + " " +
               std::to_string(ev.count);
        break;
      case FaultKind::kLossBurst:
        out += "loss " + link + " " + shortest_decimal(ev.value) + " " +
               shortest_seconds(ev.duration);
        break;
      case FaultKind::kRateChange:
        out += "rate " + link + " " + shortest_decimal(ev.value) + " " +
               shortest_seconds(ev.duration);
        break;
      case FaultKind::kDelayChange:
        out += "delay " + link + " " + shortest_decimal(ev.value) + " " +
               shortest_seconds(ev.duration);
        break;
      case FaultKind::kActuatorFail:
        out += "actuator-fail " + shortest_decimal(ev.value) + " " +
               shortest_seconds(ev.duration);
        break;
      case FaultKind::kPollFail:
        out += "poll-fail " + shortest_decimal(ev.value) + " " +
               shortest_seconds(ev.duration);
        break;
      case FaultKind::kPollPartial:
        out += "poll-partial " + shortest_decimal(ev.value) + " " +
               shortest_seconds(ev.duration);
        break;
      case FaultKind::kAgentCrash:
        out += "crash " + std::to_string(ev.host_index) + " " +
               shortest_seconds(ev.duration) + " ";
        if (ev.warm) {
          out += ev.flush_routes ? "reboot-warm" : "warm";
        } else {
          out += ev.flush_routes ? "reboot-cold" : "cold";
        }
        break;
      case FaultKind::kRouteDrift:
        out += "route-drift " + std::to_string(ev.host_index) + " " +
               shortest_decimal(ev.value) + " " + shortest_decimal(ev.value2);
        break;
    }
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t frag_start = 0;
  while (frag_start <= spec.size()) {
    std::size_t frag_end = spec.find(';', frag_start);
    if (frag_end == std::string::npos) frag_end = spec.size();

    std::vector<Token> tok;
    for (std::size_t i = frag_start; i < frag_end;) {
      while (i < frag_end &&
             std::isspace(static_cast<unsigned char>(spec[i]))) {
        ++i;
      }
      if (i >= frag_end) break;
      std::size_t j = i;
      while (j < frag_end &&
             !std::isspace(static_cast<unsigned char>(spec[j]))) {
        ++j;
      }
      tok.push_back({spec.substr(i, j - i), i});
      i = j;
    }
    const auto advance = [&] {
      if (frag_end == spec.size()) {
        frag_start = spec.size() + 1;  // terminate the outer loop
      } else {
        frag_start = frag_end + 1;
      }
    };
    if (tok.empty()) {  // empty fragment (trailing ';', blank spec)
      advance();
      continue;
    }

    if (tok[0].text.size() < 2 || tok[0].text[0] != '@') {
      fail("expected '@SECONDS' to lead the event", tok[0]);
    }
    const double at_s =
        parse_number({tok[0].text.substr(1), tok[0].offset + 1});
    if (at_s < 0.0) fail("negative event time", tok[0]);
    if (at_s > kMaxSeconds) fail("event time over 1e6 s", tok[0]);
    const sim::Time at = sim::Time::from_seconds(at_s);
    if (tok.size() < 2) fail("missing action", tok[0]);
    const Token& action = tok[1];
    const auto want = [&](std::size_t n) {
      if (tok.size() != 2 + n) {
        fail("'" + action.text + "' takes " + std::to_string(n) +
                 " argument(s)",
             tok.size() > 2 + n ? tok[2 + n] : action);
      }
    };
    const auto probability = [&](const Token& token) {
      const double p = parse_number(token);
      if (p < 0.0 || p > 1.0) fail("probability outside [0, 1]", token);
      return p;
    };
    const auto seconds = [&](const Token& token) {
      const double s = parse_number(token);
      if (s < 0.0) fail("negative duration", token);
      if (s > kMaxSeconds) fail("duration over 1e6 s", token);
      return sim::Time::from_seconds(s);
    };

    std::size_t a = 0, b = 0;
    if (action.text == "down") {
      want(1);
      parse_link(tok[2], a, b);
      plan.link_down(at, a, b);
    } else if (action.text == "up") {
      want(1);
      parse_link(tok[2], a, b);
      plan.link_up(at, a, b);
    } else if (action.text == "flap") {
      want(3);
      parse_link(tok[2], a, b);
      const sim::Time period = seconds(tok[3]);
      const double count = parse_number(tok[4]);
      if (!whole_in_range(count, 1)) {
        fail("flap count must be an integer in [1, 1e6]", tok[4]);
      }
      plan.link_flap(at, a, b, period, static_cast<int>(count));
    } else if (action.text == "loss") {
      want(3);
      parse_link(tok[2], a, b);
      plan.loss_burst(at, a, b, probability(tok[3]), seconds(tok[4]));
    } else if (action.text == "rate") {
      want(3);
      parse_link(tok[2], a, b);
      const double factor = parse_number(tok[3]);
      if (factor < kMinRateFactor || factor > kMaxRateFactor) {
        fail("rate factor outside [1e-6, 1e6]", tok[3]);
      }
      plan.rate_factor(at, a, b, factor, seconds(tok[4]));
    } else if (action.text == "delay") {
      want(3);
      parse_link(tok[2], a, b);
      const double ms = parse_number(tok[3]);
      if (ms < 0.0) fail("negative extra delay", tok[3]);
      if (ms > kMaxSeconds * 1000.0) fail("extra delay over 1e6 s", tok[3]);
      plan.extra_delay(at, a, b, ms, seconds(tok[4]));
    } else if (action.text == "actuator-fail") {
      want(2);
      plan.actuator_failures(at, probability(tok[2]), seconds(tok[3]));
    } else if (action.text == "poll-fail") {
      want(2);
      plan.poll_failures(at, probability(tok[2]), seconds(tok[3]));
    } else if (action.text == "poll-partial") {
      want(2);
      plan.poll_partial(at, probability(tok[2]), seconds(tok[3]));
    } else if (action.text == "crash") {
      want(3);
      const double host = parse_number(tok[2]);
      if (!whole_in_range(host, -1)) {
        fail("crash host must be an index or -1 (all)", tok[2]);
      }
      bool warm = false;
      bool flush = false;
      if (tok[4].text == "warm") {
        warm = true;
      } else if (tok[4].text == "reboot-warm") {
        warm = true;
        flush = true;
      } else if (tok[4].text == "reboot-cold") {
        flush = true;
      } else if (tok[4].text != "cold") {
        fail("crash mode must be 'warm', 'cold', 'reboot-warm' or "
             "'reboot-cold'",
             tok[4]);
      }
      plan.agent_crash(at, static_cast<int>(host), seconds(tok[3]), warm,
                       flush);
    } else if (action.text == "route-drift") {
      want(3);
      const double host = parse_number(tok[2]);
      if (!whole_in_range(host, -1)) {
        fail("route-drift host must be an index or -1 (all)", tok[2]);
      }
      plan.route_drift(at, static_cast<int>(host), probability(tok[3]),
                       probability(tok[4]));
    } else {
      fail("unknown action", action);
    }
    advance();
  }
  return plan;
}

}  // namespace riptide::faults
