#pragma once

#include <compare>
#include <cstdint>
#include <ostream>
#include <string>

namespace riptide::net {

// IPv4 address as a strong type over the host-order 32-bit value.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  // Parses dotted-quad notation ("10.0.0.1"); throws on malformed input.
  static Ipv4Address parse(const std::string& text);

  constexpr std::uint32_t value() const { return value_; }
  std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;
  friend std::ostream& operator<<(std::ostream& os, Ipv4Address a) {
    return os << a.to_string();
  }

 private:
  std::uint32_t value_ = 0;
};

// CIDR prefix: address + mask length. The stored address is canonicalized
// (host bits zeroed) so equal prefixes compare equal.
class Prefix {
 public:
  constexpr Prefix() = default;

  // Precondition: 0 <= length <= 32.
  Prefix(Ipv4Address address, int length);

  // Parses "10.1.0.0/16"; throws on malformed input.
  static Prefix parse(const std::string& text);

  // Convenience for exact-host routes (the /32 granularity of §III-B).
  static Prefix host(Ipv4Address address) { return Prefix(address, 32); }

  Ipv4Address address() const { return address_; }
  int length() const { return length_; }
  // Inline: every forwarded packet tests up to one prefix per route.
  std::uint32_t mask() const {
    return length_ == 0 ? 0 : ~std::uint32_t{0} << (32 - length_);
  }

  bool contains(Ipv4Address a) const {
    return (a.value() & mask()) == address_.value();
  }
  bool contains(const Prefix& other) const {
    return other.length_ >= length_ && contains(other.address_);
  }

  std::string to_string() const;

  friend auto operator<=>(const Prefix&, const Prefix&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Prefix& p) {
    return os << p.to_string();
  }

 private:
  Ipv4Address address_;
  int length_ = 0;
};

// Explicit total order for containers keyed by Prefix: numeric address
// first, then mask length. Spelled out (rather than relying on the
// defaulted comparison's member order) because route-programming
// sequences iterate maps in this order — it feeds the determinism
// fingerprints, so it is a contract, not an implementation detail.
struct PrefixOrder {
  bool operator()(const Prefix& a, const Prefix& b) const {
    if (a.address().value() != b.address().value()) {
      return a.address().value() < b.address().value();
    }
    return a.length() < b.length();
  }
};

}  // namespace riptide::net
