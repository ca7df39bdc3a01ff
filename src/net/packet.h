#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "net/ipv4.h"

namespace riptide::net {

// Base class for transport payloads carried inside a Packet. The TCP module
// derives its Segment from this, keeping net below tcp in the layering.
//
// Payloads are intrusively reference-counted: the count lives inside the
// object (no separate control block, no per-payload heap allocation the way
// shared_ptr's make_shared-less path has) and is deliberately NOT atomic —
// a simulation, and every payload it creates, is confined to one thread
// (runner::ParallelRunner gives each experiment its own worker), so atomic
// traffic on every packet copy would be pure cost. When the count drops to
// zero the payload `retire()`s itself: deletion by default, but pooled
// subclasses (tcp::Segment) override it to return to a free list instead.
struct Payload {
  // Open-coded type tag for hot-path downcasts: receive paths run once
  // per delivered packet, and dynamic_cast's RTTI walk is measurable
  // there. Derived classes stamp their tag at construction (tcp::Segment
  // uses kSegmentKind) and demux sites check it before static_cast-ing.
  static constexpr std::uint8_t kOpaqueKind = 0;
  static constexpr std::uint8_t kSegmentKind = 1;

  Payload() = default;
  explicit Payload(std::uint8_t kind) : kind_(kind) {}
  // The count tracks handles to *this object*; copying the payload's data
  // must not copy the count (the tag does travel).
  Payload(const Payload& other) : kind_(other.kind_) {}
  Payload& operator=(const Payload&) { return *this; }
  virtual ~Payload() = default;

  std::uint8_t kind() const { return kind_; }

  void ref_add() const { ++refs_; }
  void ref_release() const {
    if (--refs_ == 0) retire();
  }

 protected:
  // Called when the last Ref drops. `this` may be destroyed (default) or
  // recycled; either way the object must not be touched afterwards.
  virtual void retire() const { delete this; }

 private:
  mutable std::uint32_t refs_ = 0;
  std::uint8_t kind_ = kOpaqueKind;
};

// Intrusive smart handle to a Payload subclass. Copy = refcount bump (no
// allocation, no atomics); destruction of the last handle retires the
// object. `T` may be const-qualified.
template <typename T>
class Ref {
 public:
  Ref() = default;

  // Adopts `p` (which may have live references already) and takes a count.
  explicit Ref(T* p) noexcept : p_(p) {
    if (p_ != nullptr) p_->ref_add();
  }

  Ref(const Ref& other) noexcept : p_(other.p_) {
    if (p_ != nullptr) p_->ref_add();
  }
  Ref(Ref&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }

  // Converting copy/move (Ref<Segment> -> Ref<const Payload>).
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref(const Ref<U>& other) noexcept : p_(other.get()) {
    if (p_ != nullptr) p_->ref_add();
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  Ref(Ref<U>&& other) noexcept : p_(other.release()) {}

  Ref& operator=(const Ref& other) noexcept {
    Ref(other).swap(*this);
    return *this;
  }
  Ref& operator=(Ref&& other) noexcept {
    Ref(std::move(other)).swap(*this);
    return *this;
  }

  ~Ref() {
    if (p_ != nullptr) p_->ref_release();
  }

  void reset() {
    if (p_ != nullptr) p_->ref_release();
    p_ = nullptr;
  }

  // Detaches without releasing; the caller inherits the reference.
  T* release() noexcept {
    T* p = p_;
    p_ = nullptr;
    return p;
  }

  void swap(Ref& other) noexcept { std::swap(p_, other.p_); }

  T* get() const { return p_; }
  T& operator*() const { return *p_; }
  T* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  T* p_ = nullptr;
};

using PayloadRef = Ref<const Payload>;

// A simulated IP datagram. Payload contents are shared (immutable once sent)
// so fan-out through queues never copies segment state.
struct Packet {
  Ipv4Address src;
  Ipv4Address dst;
  std::uint32_t size_bytes = 0;  // full on-wire size incl. headers
  PayloadRef payload;
};

// Anything that can consume packets: routers, host NIC receive paths, sinks.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(const Packet& packet) = 0;
};

}  // namespace riptide::net
