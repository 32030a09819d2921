// Freelist recycling for simulated packets.
//
// A packet crosses many events during its life (fabric hop, egress queue,
// serialization, propagation); without pooling every one of those event
// captures either copied the ~120-byte Packet or heap-allocated it, and an
// INT-marked packet reallocated its int_stack at every hop of every packet.
// PacketPool hands out recycled Packet objects whose int_stack keeps its
// capacity across lives; PooledPacket is the 8-byte move-only handle that
// travels through links, switch queues, and event callbacks, returning the
// slot to the pool when the packet dies (delivery, drop, or probe sink).
//
// The pool lives in the active sim::SimContext: one per thread unless a
// harness installs its own context around a run. A pool is only ever
// touched by the thread that owns its context, so the freelist needs no
// locking. Routing through the context instead of threading a pool
// reference through every Node/Link constructor keeps construction
// signatures flat.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace speedlight::net {

class PacketPool {
 public:
  static PacketPool& instance();

  /// A reset Packet (int_stack cleared but its capacity retained).
  [[nodiscard]] Packet* acquire();

  /// Return a packet to the freelist. `pkt` must come from acquire().
  void release(Packet* pkt) noexcept;

  /// Fresh heap allocations (freelist misses) over the pool's lifetime.
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  /// Freelist hits over the pool's lifetime.
  [[nodiscard]] std::uint64_t recycled() const { return recycled_; }
  /// Packets currently parked in the freelist.
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<Packet>> free_;
  std::uint64_t allocated_ = 0;
  std::uint64_t recycled_ = 0;
};

/// Owning, move-only handle to a pooled Packet. Implicitly constructible
/// from a Packet so existing call sites (tests build a Packet and hand it to
/// receive()) keep working — the fields are moved into a pooled slot.
class PooledPacket {
 public:
  PooledPacket() noexcept = default;

  /// Wrap freshly produced packet fields in a pooled slot.
  PooledPacket(Packet&& fields)  // NOLINT(google-explicit-constructor)
      : p_(PacketPool::instance().acquire()) {
    *p_ = std::move(fields);
  }
  PooledPacket(const Packet& fields)  // NOLINT(google-explicit-constructor)
      : p_(PacketPool::instance().acquire()) {
    *p_ = fields;
  }

  PooledPacket(PooledPacket&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}

  PooledPacket& operator=(PooledPacket&& other) noexcept {
    if (this != &other) {
      reset();
      p_ = std::exchange(other.p_, nullptr);
    }
    return *this;
  }

  PooledPacket(const PooledPacket&) = delete;
  PooledPacket& operator=(const PooledPacket&) = delete;

  ~PooledPacket() { reset(); }

  /// Acquire an empty (reset) packet directly in the pool — the preferred
  /// way to *produce* a packet without staging fields on the stack.
  [[nodiscard]] static PooledPacket make() {
    PooledPacket pp;
    pp.p_ = PacketPool::instance().acquire();
    return pp;
  }

  /// Deep copy into a fresh pooled slot (probe flooding).
  [[nodiscard]] PooledPacket clone() const {
    PooledPacket pp = make();
    *pp.p_ = *p_;
    return pp;
  }

  [[nodiscard]] Packet& operator*() const noexcept { return *p_; }
  [[nodiscard]] Packet* operator->() const noexcept { return p_; }
  [[nodiscard]] Packet* get() const noexcept { return p_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return p_ != nullptr;
  }

  void reset() noexcept {
    if (p_ != nullptr) {
      PacketPool::instance().release(std::exchange(p_, nullptr));
    }
  }

 private:
  Packet* p_ = nullptr;
};

}  // namespace speedlight::net
