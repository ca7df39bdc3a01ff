#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace riptide::tcp {

// Tracks the received sequence space on the receive side: a cumulative
// in-order point (rcv_nxt) plus a set of disjoint out-of-order intervals.
// Feeding a segment advances rcv_nxt through any intervals it connects.
class ReceiveTracker {
 public:
  explicit ReceiveTracker(std::uint64_t initial_rcv_nxt = 0)
      : rcv_nxt_(initial_rcv_nxt) {}

  // Records [start, end) as received. Returns the number of bytes newly
  // delivered in-order (i.e. how far rcv_nxt advanced).
  std::uint64_t on_segment(std::uint64_t start, std::uint64_t end);

  std::uint64_t rcv_nxt() const { return rcv_nxt_; }

  // True when the segment contains no new data (fully duplicate).
  bool is_duplicate(std::uint64_t start, std::uint64_t end) const;

  bool has_out_of_order() const { return !ooo_.empty(); }
  std::size_t out_of_order_intervals() const { return ooo_.size(); }
  std::uint64_t out_of_order_bytes() const;

  // Appends up to `max_intervals` out-of-order ranges, in ascending order,
  // to any container with push_back — the material for SACK blocks (the
  // segment's SackBlocks on the hot path).
  template <typename Out>
  void fill_intervals(Out& out, std::size_t max_intervals) const {
    std::size_t n = 0;
    for (const auto& [s, e] : ooo_) {
      if (n++ >= max_intervals) break;
      out.push_back({s, e});
    }
  }

 private:
  std::uint64_t rcv_nxt_;
  // start -> end, disjoint, all strictly above rcv_nxt_.
  std::map<std::uint64_t, std::uint64_t> ooo_;
};

}  // namespace riptide::tcp
