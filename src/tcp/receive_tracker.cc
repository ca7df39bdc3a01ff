#include "tcp/receive_tracker.h"

#include <algorithm>

namespace riptide::tcp {

bool ReceiveTracker::is_duplicate(std::uint64_t start, std::uint64_t end) const {
  if (end <= start) return true;
  if (end <= rcv_nxt_) return true;
  // New bytes exist unless some out-of-order interval covers [max(start,
  // rcv_nxt), end) entirely.
  std::uint64_t cursor = std::max(start, rcv_nxt_);
  for (const auto& [s, e] : ooo_) {
    if (e <= cursor) continue;
    if (s > cursor) return false;  // gap at cursor not covered
    cursor = e;
    if (cursor >= end) return true;
  }
  return cursor >= end;
}

std::uint64_t ReceiveTracker::on_segment(std::uint64_t start, std::uint64_t end) {
  if (end <= start || end <= rcv_nxt_) return 0;
  start = std::max(start, rcv_nxt_);

  // Merge [start, end) into the out-of-order set.
  auto it = ooo_.lower_bound(start);
  if (it != ooo_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      it = ooo_.erase(prev);
    }
  }
  while (it != ooo_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = ooo_.erase(it);
  }
  ooo_.emplace(start, end);

  // Advance rcv_nxt through a now-contiguous head interval.
  std::uint64_t delivered = 0;
  auto head = ooo_.begin();
  if (head != ooo_.end() && head->first <= rcv_nxt_) {
    delivered = head->second - rcv_nxt_;
    rcv_nxt_ = head->second;
    ooo_.erase(head);
  }
  return delivered;
}

std::uint64_t ReceiveTracker::out_of_order_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [s, e] : ooo_) total += e - s;
  return total;
}

}  // namespace riptide::tcp
