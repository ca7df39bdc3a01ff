#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

#include "net/packet.h"

namespace riptide::tcp {

class SegmentPool;

// SACK blocks, stored in the segment: real ACKs carry at most 3 blocks
// (RFC 2018 with timestamps), and the one producer,
// TcpConnection::make_segment, caps at kInlineCapacity, so a segment never
// allocates for them.
class SackBlocks {
 public:
  using Block = std::pair<std::uint64_t, std::uint64_t>;  // [start, end)
  static constexpr std::size_t kInlineCapacity = 3;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  void clear() { size_ = 0; }

  void push_back(const Block& block) {
    assert(size_ < kInlineCapacity);
    blocks_[size_++] = block;
  }

  const Block* begin() const { return blocks_.data(); }
  const Block* end() const { return blocks_.data() + size_; }

 private:
  std::array<Block, kInlineCapacity> blocks_{};
  std::uint32_t size_ = 0;
};

// A TCP segment. Sequence numbers are 64-bit absolute byte offsets starting
// from 0 on each side (no 32-bit wrap handling: simulated flows move far
// less than 2^64 bytes, and wrap logic would only obscure the protocol
// logic this reproduction cares about). Payload is represented by its length
// only; the CDN workloads in this study are size-driven, not content-driven.
//
// Segments are normally checked out of a thread-local SegmentPool (see
// tcp/segment_pool.h) and returned to it when the last net::Ref drops;
// stack- or make_shared-constructed segments (tests) simply delete.
struct Segment : net::Payload {
  Segment() : net::Payload(net::Payload::kSegmentKind) {}

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  std::uint64_t seq = 0;  // first payload byte (or the SYN/FIN itself)
  std::uint64_t ack = 0;  // next byte expected by the sender of this segment

  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;

  std::uint32_t payload_bytes = 0;
  std::uint64_t window_bytes = 0;  // advertised receive window

  // SACK option: up to 3 received-but-out-of-order ranges [start, end),
  // ascending. Empty when the peer has no holes (or SACK is off).
  SackBlocks sack_blocks;

  // Sequence space consumed: payload plus one unit each for SYN and FIN.
  std::uint64_t sequence_span() const {
    return payload_bytes + (syn ? 1u : 0u) + (fin ? 1u : 0u);
  }
  std::uint64_t seq_end() const { return seq + sequence_span(); }

  std::string flags_string() const {
    std::string f;
    if (syn) f += 'S';
    if (ack_flag) f += 'A';
    if (fin) f += 'F';
    if (rst) f += 'R';
    return f.empty() ? "." : f;
  }

  std::string to_string() const {
    std::ostringstream os;
    os << flags_string() << " seq=" << seq << " ack=" << ack
       << " len=" << payload_bytes << " wnd=" << window_bytes;
    return os.str();
  }

  // Generation stamp for debug-build use-after-recycle checks: bumped by
  // the pool each time this slot is recycled, compared by SegmentRef.
  std::uint32_t pool_generation() const { return pool_gen_; }

 protected:
  void retire() const override;

 private:
  friend class SegmentPool;
  SegmentPool* pool_ = nullptr;  // null: not pool-owned, retire() deletes
  std::uint32_t pool_gen_ = 0;
};

// Tag-checked downcast for packet demux: dynamic_cast without the RTTI
// walk. Returns null for non-TCP payloads (or none at all).
inline const Segment* segment_from(const net::Packet& packet) {
  const net::Payload* p = packet.payload.get();
  return p != nullptr && p->kind() == net::Payload::kSegmentKind
             ? static_cast<const Segment*>(p)
             : nullptr;
}

// Owning handle to a (usually pooled) segment. A thin wrapper over
// net::Ref<Segment> that, in debug builds, pins the pool generation it was
// issued for and asserts on every dereference — a stale handle to a
// recycled slot trips immediately instead of silently reading the next
// checkout's fields.
class SegmentRef {
 public:
  SegmentRef() = default;
  explicit SegmentRef(Segment* seg) : ref_(seg) {
#ifndef NDEBUG
    gen_ = seg != nullptr ? seg->pool_generation() : 0;
#endif
  }

  Segment* get() const {
    check();
    return ref_.get();
  }
  Segment& operator*() const {
    check();
    return *ref_;
  }
  Segment* operator->() const {
    check();
    return ref_.get();
  }
  explicit operator bool() const { return static_cast<bool>(ref_); }

  // The underlying refcounted handle (e.g. to stash in a Packet).
  const net::Ref<Segment>& ref() const& {
    check();
    return ref_;
  }
  net::Ref<Segment>&& ref() && {
    check();
    return std::move(ref_);
  }

 private:
  void check() const {
#ifndef NDEBUG
    if (ref_.get() != nullptr && ref_->pool_generation() != gen_) {
      std::abort();  // use-after-recycle
    }
#endif
  }

  net::Ref<Segment> ref_;
#ifndef NDEBUG
  std::uint32_t gen_ = 0;
#endif
};

}  // namespace riptide::tcp
