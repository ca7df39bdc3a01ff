#include "sim/time.h"

#include <cstdio>
#include <cstdlib>

namespace riptide::sim {

std::string shortest_decimal(double value) {
  char buf[64];
  for (int precision : {6, 9, 15, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace riptide::sim
