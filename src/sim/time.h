#pragma once

#include <compare>
#include <cstdint>
#include <ostream>
#include <string>

namespace riptide::sim {

// Simulated time as a strong type over signed nanoseconds. Signed so that
// differences and "not yet scheduled" sentinels are representable without
// wrap-around surprises (Core Guidelines ES.102).
class Time {
 public:
  constexpr Time() = default;

  static constexpr Time zero() { return Time{0}; }
  static constexpr Time nanoseconds(std::int64_t ns) { return Time{ns}; }
  static constexpr Time microseconds(std::int64_t us) { return Time{us * 1'000}; }
  static constexpr Time milliseconds(std::int64_t ms) { return Time{ms * 1'000'000}; }
  static constexpr Time seconds(std::int64_t s) { return Time{s * 1'000'000'000}; }
  static constexpr Time minutes(std::int64_t m) { return seconds(m * 60); }
  static constexpr Time hours(std::int64_t h) { return seconds(h * 3600); }

  // Fractional constructors for rates/latencies computed in double.
  static constexpr Time from_seconds(double s) {
    return Time{static_cast<std::int64_t>(s * 1e9)};
  }
  static constexpr Time from_milliseconds(double ms) {
    return Time{static_cast<std::int64_t>(ms * 1e6)};
  }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double to_milliseconds() const { return static_cast<double>(ns_) / 1e6; }

  friend constexpr auto operator<=>(Time, Time) = default;

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ns_ + b.ns_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ns_ - b.ns_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.ns_ * k}; }
  friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.ns_ * k}; }
  friend constexpr Time operator/(Time a, std::int64_t k) { return Time{a.ns_ / k}; }
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }

  Time& operator+=(Time other) {
    ns_ += other.ns_;
    return *this;
  }
  Time& operator-=(Time other) {
    ns_ -= other.ns_;
    return *this;
  }

  friend std::ostream& operator<<(std::ostream& os, Time t) {
    return os << t.to_milliseconds() << "ms";
  }

 private:
  constexpr explicit Time(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

// The shortest of "%.6g", "%.9g", "%.15g" and "%.17g" that strtod reads
// back as exactly `value`. The canonical spec serializers (fault plans,
// hostile scenarios, chaos specs) print their numbers with it, so a
// re-parse reproduces the exact double, and with it the exact Time.
std::string shortest_decimal(double value);
inline std::string shortest_seconds(Time t) {
  return shortest_decimal(t.to_seconds());
}

}  // namespace riptide::sim
