#include "sim/number.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace riptide::sim {

std::optional<std::uint64_t> read_u64(const std::string& text) {
  // strtoull alone would also take a sign or leading space.
  if (text.empty()) return std::nullopt;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0) return std::nullopt;
  return value;
}

std::optional<double> read_double(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno != 0 ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::vector<std::uint64_t>> read_u64_list(
    const std::string& text) {
  std::vector<std::uint64_t> values;
  for (std::size_t start = 0;;) {
    const auto comma = text.find(',', start);
    const auto value = read_u64(text.substr(start, comma - start));
    if (!value) return std::nullopt;
    values.push_back(*value);
    if (comma == std::string::npos) return values;
    start = comma + 1;
  }
}

}  // namespace riptide::sim
