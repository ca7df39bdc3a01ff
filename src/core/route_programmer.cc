#include "core/route_programmer.h"

#include <stdexcept>

namespace riptide::core {

void HostRouteProgrammer::set_initial_windows(const net::Prefix& dst,
                                              std::uint32_t initcwnd_segments,
                                              std::uint32_t initrwnd_segments,
                                              tcp::RouteCc cc) {
  if (dst.length() == 0) {
    // Refuse to rewrite the default route: the misconfiguration §III-C
    // warns about (machines becoming unreachable).
    throw std::invalid_argument(
        "HostRouteProgrammer: refusing to replace the default route");
  }
  host_.routing_table().add_or_replace(
      dst, host::RouteMetrics{initcwnd_segments, initrwnd_segments, cc});
  ++routes_programmed_;
}

void HostRouteProgrammer::clear(const net::Prefix& dst) {
  if (host_.routing_table().remove(dst)) ++routes_cleared_;
}

}  // namespace riptide::core
