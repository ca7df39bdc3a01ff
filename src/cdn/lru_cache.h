#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

namespace riptide::cdn {

// Byte-capacity LRU cache over object ids. lookup() promotes; insert()
// evicts least-recently-used entries until the new object fits. Objects
// larger than the whole cache are rejected (never cached), as real CDN
// caches do with size admission.
class LruCache {
 public:
  explicit LruCache(std::uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  // True on hit (and the entry becomes most-recently-used).
  bool lookup(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    ++hits_;
    return true;
  }

  // Inserts (or refreshes) an object. Returns false when the object cannot
  // be admitted (larger than capacity).
  bool insert(std::uint64_t id, std::uint64_t bytes) {
    if (bytes > capacity_bytes_) return false;
    const auto it = index_.find(id);
    if (it != index_.end()) {
      size_bytes_ -= it->second->bytes;
      it->second->bytes = bytes;
      size_bytes_ += bytes;
      order_.splice(order_.begin(), order_, it->second);
      evict_to_fit();
      return true;
    }
    order_.push_front(Entry{id, bytes});
    index_[id] = order_.begin();
    size_bytes_ += bytes;
    evict_to_fit();
    return true;
  }

  bool contains(std::uint64_t id) const { return index_.contains(id); }

  std::uint64_t size_bytes() const { return size_bytes_; }
  std::size_t entries() const { return order_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  double hit_ratio() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  struct Entry {
    std::uint64_t id;
    std::uint64_t bytes;
  };

  void evict_to_fit() {
    while (size_bytes_ > capacity_bytes_ && !order_.empty()) {
      const Entry& victim = order_.back();
      size_bytes_ -= victim.bytes;
      index_.erase(victim.id);
      order_.pop_back();
      ++evictions_;
    }
  }

  std::uint64_t capacity_bytes_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t size_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace riptide::cdn
