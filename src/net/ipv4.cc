#include "net/ipv4.h"

#include <cstdio>
#include <stdexcept>

namespace riptide::net {

Ipv4Address Ipv4Address::parse(const std::string& text) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char extra = 0;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &extra) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    throw std::invalid_argument("Ipv4Address::parse: bad address '" + text + "'");
  }
  return Ipv4Address(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                     static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value_ >> 24) & 0xff,
                (value_ >> 16) & 0xff, (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

Prefix::Prefix(Ipv4Address address, int length) : length_(length) {
  if (length < 0 || length > 32) {
    throw std::invalid_argument("Prefix: length outside [0, 32]");
  }
  address_ = Ipv4Address(address.value() & mask());
}

Prefix Prefix::parse(const std::string& text) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("Prefix::parse: missing '/' in '" + text + "'");
  }
  const auto addr = Ipv4Address::parse(text.substr(0, slash));
  const int len = std::stoi(text.substr(slash + 1));
  return Prefix(addr, len);
}

std::string Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

}  // namespace riptide::net
