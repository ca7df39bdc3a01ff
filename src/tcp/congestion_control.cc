#include "tcp/congestion_control.h"

#include "tcp/bbr_lite.h"
#include "tcp/cubic.h"
#include "tcp/reno.h"

namespace riptide::tcp {

std::unique_ptr<CongestionControl> make_congestion_control(
    const TcpConfig& config, std::uint64_t initial_cwnd_bytes) {
  switch (config.congestion_control) {
    case CcAlgorithm::kNewReno:
      return std::make_unique<NewReno>(kMss, initial_cwnd_bytes,
                                       config.hystart);
    case CcAlgorithm::kCubic:
      return std::make_unique<Cubic>(kMss, initial_cwnd_bytes, config.hystart);
    case CcAlgorithm::kBbrLite:
      return std::make_unique<BbrLite>(kMss, initial_cwnd_bytes);
  }
  return std::make_unique<Cubic>(kMss, initial_cwnd_bytes, config.hystart);
}

const char* to_string(RouteCc cc) {
  switch (cc) {
    case RouteCc::kUnset: return "";
    case RouteCc::kReno: return "reno";
    case RouteCc::kCubic: return "cubic";
    case RouteCc::kCubicFast: return "cubic-fast";
    case RouteCc::kBbrLite: return "bbr";
  }
  return "";
}

bool parse_route_cc(const std::string& token, RouteCc& out) {
  if (token == "reno") {
    out = RouteCc::kReno;
  } else if (token == "cubic") {
    out = RouteCc::kCubic;
  } else if (token == "cubic-fast") {
    out = RouteCc::kCubicFast;
  } else if (token == "bbr") {
    out = RouteCc::kBbrLite;
  } else {
    return false;
  }
  return true;
}

void apply_route_cc(RouteCc cc, TcpConfig& config) {
  switch (cc) {
    case RouteCc::kUnset:
      break;
    case RouteCc::kReno:
      config.congestion_control = CcAlgorithm::kNewReno;
      break;
    case RouteCc::kCubic:
      config.congestion_control = CcAlgorithm::kCubic;
      break;
    case RouteCc::kCubicFast:
      config.congestion_control = CcAlgorithm::kCubic;
      config.hystart = true;
      config.pacing = true;
      break;
    case RouteCc::kBbrLite:
      config.congestion_control = CcAlgorithm::kBbrLite;
      config.pacing = true;
      break;
  }
}

}  // namespace riptide::tcp
