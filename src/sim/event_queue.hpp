// Deterministic discrete-event queue.
//
// Events at equal timestamps are delivered in scheduling order (a strictly
// increasing sequence number breaks ties), so a simulation run is a pure
// function of its inputs and seeds.
//
// Internals (DESIGN.md "Kernel internals"): actions live in generation-
// stamped slots; the heap orders 24-byte trivially-copyable entries
// {when, seq, slot, gen}. Cancellation bumps the slot's generation — O(1),
// no hash lookup — and stale heap entries (whose stamped generation no
// longer matches the slot) are discarded lazily when they surface at the
// front, or all at once when they come to outnumber the live entries in
// the heap. Slots are recycled through an intrusive freelist, so
// steady-state scheduling allocates nothing.
//
// Lanes carry time-ordered streams (a channel's deliveries, a switch's
// forwarding events, zero-delay pumps): a lane is a FIFO ring of events
// appended in non-decreasing time, and only its head sits in the heap.
// Every event, laned or not, draws its seq from the one counter, so the
// heap still pops the exact global (when, seq) order.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace hsfi::sim {

/// Handle used to cancel a scheduled event: (slot index << 32) | generation.
/// A generation is never 0 and a slot's generation bumps every time the
/// event in it fires or is cancelled, so a stale handle can only collide
/// with a live one after 2^32 reuses of a single slot.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Action = sim::Action;
  /// Names a lane registered with add_lane().
  using LaneId = std::uint32_t;

  /// Heap entry: trivially copyable so heap sifts are plain 24-byte moves.
  /// A lane's head is an entry whose `slot` is kLaneFlag | lane (its `gen`
  /// is 0). Public only because Snapshot carries the heap verbatim.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// A pending lane event (also its snapshot form).
  struct LaneEvent {
    SimTime when = 0;
    std::uint64_t seq = 0;
    Action action;
  };

  /// Schedules `action` at absolute time `when` and returns its id.
  /// Actions are taken by rvalue reference: each move is an indirect
  /// call, and the action moves once into the queue and once out.
  EventId schedule(SimTime when, Action&& action);

  /// Cancels a pending event in O(1). Cancelling an already-fired,
  /// already-cancelled, or invalid id is a no-op.
  void cancel(EventId id);

  /// Registers a new, empty lane. Lanes live as long as the queue.
  [[nodiscard]] LaneId add_lane();

  /// Schedules `action` at `when` on `lane`. It fires in exactly the order
  /// schedule(when, action) would give it, but cannot be cancelled. O(1)
  /// when `when` is not earlier than the lane's last pending event (the
  /// case lanes exist for); an earlier event is scheduled through the heap
  /// instead, so order never depends on the caller keeping time order.
  void schedule_lane(LaneId lane, SimTime when, Action&& action);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the earliest live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() {
    drop_stale_front();
    return heap_.front().when;
  }

  struct Fired {
    SimTime when = 0;
    /// The id schedule() returned; kInvalidEventId for a lane event.
    EventId id = kInvalidEventId;
    /// 1-based schedule ordinal. Representation-independent provenance:
    /// equal-time events fire in increasing seq, and determinism digests
    /// key on it rather than on the slot/generation id encoding.
    std::uint64_t seq = 0;
    Action action;
  };

  /// Removes and returns the earliest live event. Precondition: !empty().
  Fired pop();

  /// Full queue state at a point in time: heap order, slot generations, the
  /// freelist chain, every lane's pending events, the tie-break counter,
  /// and a deep copy of every pending action. Restoring it into a queue
  /// replays the identical (when, seq, slot, gen) pop order. Move-only
  /// (actions are), and restorable any number of times.
  struct Snapshot {
    struct SlotState {
      Action action;  ///< empty for retired slots
      std::uint32_t gen = 1;
      std::uint32_t next_free = 0xFFFFFFFFu;
    };
    std::vector<Entry> heap;
    std::vector<SlotState> slots;
    std::vector<std::vector<LaneEvent>> lanes;  ///< per lane, oldest first
    std::uint32_t free_head = 0xFFFFFFFFu;
    std::size_t live = 0;
    std::size_t stale = 0;
    std::uint64_t next_seq = 1;
  };

  /// Captures the queue verbatim. Throws std::logic_error if any pending
  /// action holds a move-only callable (see Action::clonable) — kernel
  /// events are expected to capture pointers and copyable values only.
  [[nodiscard]] Snapshot snapshot() const;

  /// Rewinds the queue to `snap` (deep-copying its actions, so the same
  /// snapshot can seed many forks). Actions captured in the snapshot keep
  /// their embedded pointers, so restore only makes sense into the same
  /// object graph the snapshot was taken from. Lanes registered since the
  /// capture stay registered and come back empty.
  void restore(const Snapshot& snap);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kLaneFlag = 0x80000000u;

  struct Slot {
    Action action;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoSlot;
  };

  /// FIFO ring of one lane's pending events; capacity is a power of two
  /// and doubles when full, so it settles at the lane's in-flight peak.
  struct Lane {
    std::vector<LaneEvent> ring;
    std::uint32_t head = 0;
    std::uint32_t count = 0;

    [[nodiscard]] std::uint32_t mask() const noexcept {
      return static_cast<std::uint32_t>(ring.size()) - 1;
    }
    [[nodiscard]] LaneEvent& at(std::uint32_t i) noexcept {
      return ring[(head + i) & mask()];
    }
    [[nodiscard]] const LaneEvent& at(std::uint32_t i) const noexcept {
      return ring[(head + i) & mask()];
    }
    void grow();
    /// Destroys every pending event, keeping the ring's storage.
    void clear() noexcept;
  };

  /// Heap order: true when `a` fires after `b`. A function object, not a
  /// function pointer, so every sift inlines it.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  [[nodiscard]] bool is_stale(const Entry& e) const noexcept {
    return (e.slot & kLaneFlag) == 0 && slots_[e.slot].gen != e.gen;
  }

  void push(const Entry& e);
  /// Puts `e` at the root in place of the current front and sifts it down.
  void replace_front(const Entry& e) noexcept;
  /// Removes the front entry; the last entry takes its place through
  /// replace_front, so every pop shares the one sift-down.
  void pop_front() noexcept;

  /// Retires a slot after its event fired or was cancelled: bumps the
  /// generation (skipping 0, the invalid marker) and chains it on the
  /// freelist.
  void retire(std::uint32_t slot_index) noexcept;

  /// Pops entries whose generation stamp no longer matches their slot
  /// (cancelled events) off the front of the heap.
  void drop_stale_front() {
    while (stale_ != 0 && is_stale(heap_.front())) {
      pop_front();
      --stale_;
    }
  }

  /// Drops every stale entry and re-heapifies once they outnumber the live
  /// entries in the heap, which bounds the heap at about twice its live
  /// entries; each compaction is paid for by the cancels that made its
  /// stale entries. Keys are unique, so the pop order is unchanged.
  void compact_if_stale();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<Lane> lanes_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;   ///< scheduled and not yet fired/cancelled
  std::size_t stale_ = 0;  ///< cancelled entries still in heap_
  std::uint64_t next_seq_ = 1;
};

}  // namespace hsfi::sim
