// The discrete-event core: a slab of generation-counted event slots indexed
// by an explicit 4-ary min-heap.
//
// Events at the same timestamp run in (merge key, schedule order): an
// explicit 32-bit merge key ranks first and a monotonically increasing
// sequence number breaks the remaining ties. Plain schedule() uses key 0,
// which reproduces pure schedule order. Channel deliveries (links, RPCs,
// poll legs) carry an intrinsic key allocated in topology-construction
// order, so the same-timestamp merge order at a destination is a property
// of the channel, not of which component scheduled first (see DESIGN.md
// section 12).
//
// Design (allocation-free in steady state):
//  - Callbacks live in a slab of recycled slots; freed slot indices are kept
//    on a freelist, so steady-state schedule/pop touches no allocator.
//  - The heap orders lightweight (time, seq, slot, generation) entries; no
//    hashing anywhere on the hot path.
//  - cancel() is O(1): it destroys the callback, bumps the slot generation
//    (invalidating the heap entry and the EventId), and recycles the slot.
//    Stale heap entries are removed lazily at the top, and the whole heap is
//    compacted (filter + heapify) whenever stale entries exceed half of it —
//    bounding the heap at 2x the live event count no matter how adversarial
//    the schedule/cancel churn is (e.g. periodic snapshot re-arms).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inplace_callback.hpp"
#include "sim/time.hpp"

namespace speedlight::sim {

/// Handle used to cancel a scheduled event: (slot generation << 32) | slot
/// index. Generations start at 1, so 0 is never a valid handle and may be
/// used as a "no event" sentinel.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

/// Same-timestamp merge rank. 0 (the default) sorts before every channel
/// key, so purely local events keep schedule order among themselves.
using MergeKey = std::uint32_t;

class EventQueue {
 public:
  using Callback = InplaceCallback;

  /// Schedule `fn` to run at absolute time `when`. Returns a handle that can
  /// be passed to cancel(). `when` may not be in the past relative to the
  /// last popped event.
  EventId schedule(SimTime when, Callback fn) {
    return schedule_keyed(when, 0, std::move(fn));
  }

  /// Schedule with an explicit same-timestamp merge key: events at equal
  /// times run in (key, schedule order). Channels use their channel id so
  /// delivery interleaving is fixed by topology construction order.
  EventId schedule_keyed(SimTime when, MergeKey key, Callback fn);

  /// Cancel a previously scheduled event. Cancelling an already-executed or
  /// unknown event is a no-op; returns whether anything was cancelled.
  bool cancel(EventId id);

  /// True if no runnable (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of runnable events.
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Timestamp of the next runnable event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Pop and return the next runnable event. Precondition: !empty().
  /// `seq` is the event's schedule-order sequence number — the tie-break
  /// key for same-timestamp events, exposed so the determinism auditor can
  /// fingerprint tie pairs.
  struct Popped {
    SimTime time;
    std::uint64_t seq;
    Callback fn;
  };
  Popped pop();

  // --- Introspection (tests and the perf harness) ---------------------------
  /// Heap entries including cancelled-but-not-yet-removed ones. Bounded by
  /// 2 * size() through lazy compaction (the stale-entry leak regression).
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }
  /// Slots ever allocated in the slab (high-water mark of concurrent events).
  [[nodiscard]] std::size_t slab_slots() const { return slots_.size(); }
  /// Number of full-heap compactions triggered by cancellation churn.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

 private:
  struct Slot {
    std::uint32_t generation = 1;  ///< Bumped on every release; never 0.
    Callback fn;
  };

  /// Heap entries carry their own ordering key so a cancelled slot can be
  /// recycled immediately: the stale entry keeps comparing with the key it
  /// was scheduled with until lazy removal gets rid of it.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
    MergeKey key;

    [[nodiscard]] bool before(const HeapEntry& o) const {
      if (time != o.time) return time < o.time;
      if (key != o.key) return key < o.key;
      return seq < o.seq;
    }
  };

  static constexpr std::size_t kArity = 4;

  [[nodiscard]] bool stale(const HeapEntry& e) const {
    return slots_[e.slot].generation != e.generation;
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  /// Remove the root entry (stale or live) and restore the heap property.
  void remove_top() const;
  /// Drop stale entries from the top until the root is live (or heap empty).
  void purge_stale_top() const;
  /// Filter out every stale entry and re-heapify; O(heap size).
  void compact();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  // `mutable` because next_time() lazily sheds stale top entries, exactly
  // like the old implementation's drop_cancelled().
  mutable std::vector<HeapEntry> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace speedlight::sim
