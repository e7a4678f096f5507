// Deterministic discrete-event queue.
//
// Events at equal timestamps are delivered in scheduling order (a strictly
// increasing sequence number breaks ties), so a simulation run is a pure
// function of its inputs and seeds.
//
// Internals (DESIGN.md "Kernel internals"): a calendar queue. Time is cut
// into buckets of 2^11 ps, and a wheel of 4096 buckets covers the 8.4 µs
// from the cursor's bucket on, where nearly every event lands (a saturated
// Myrinet run schedules 99.8% of its events at most 1 µs ahead). A bucket
// is a singly linked list threaded through the slot array and kept in
// (when, seq) order; a two-level bitmap finds the next non-empty bucket.
// Events outside the wheel go to a small overflow heap, whose top is
// compared with the wheel's front at every pop, so schedule and pop are
// O(1) for wheel events and the pop order is exactly (when, seq).
//
// The cursor is the bucket of the latest event popped so far, and only
// pop() moves it. next_time() may drop cancelled entries off the front but
// never moves the cursor, so an event scheduled at the current time
// afterwards still files into its own bucket rather than one revolution
// late.
//
// Cancellation is O(1): it bumps the slot's generation (EventId is
// (slot << 32) | generation) and destroys the action. A cancelled wheel
// entry stays linked in its bucket, marked by seq 0, until it surfaces at
// the front, so it lingers at most one horizon of simulated time. A
// cancelled overflow entry frees its slot at once; its heap entry goes
// stale (the stamped generation no longer matches) and is dropped when it
// surfaces or, once stale entries outnumber live ones, by a compaction, so
// the heap never holds more than about twice its live entries. Slots are
// recycled through an intrusive freelist, so steady-state scheduling
// allocates nothing.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
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

  /// Bucket width: 2^kBucketBits ps (2.048 ns).
  static constexpr int kBucketBits = 11;
  /// Buckets in the wheel; with the width above, an 8.4 µs horizon.
  static constexpr std::size_t kBuckets = 4096;

  /// Ordering state of one slot. Public only because Snapshot carries the
  /// slots verbatim.
  struct Node {
    SimTime when = 0;
    /// Schedule ordinal; 0 marks a cancelled entry still in its bucket.
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    /// Successor in the slot's bucket list or on the freelist, or
    /// kInHeap while the event waits in the overflow heap.
    std::uint32_t next = 0xFFFFFFFFu;
  };

  /// A bucket's list of slots, earliest first.
  struct Bucket {
    std::uint32_t head = 0xFFFFFFFFu;
    std::uint32_t tail = 0xFFFFFFFFu;
  };

  /// Overflow heap entry: trivially copyable so sifts are plain 24-byte
  /// moves; `gen` stamps the slot's generation at schedule time.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Schedules `action` (non-empty) at absolute time `when` and returns its
  /// id. Actions are taken by rvalue reference: each move is an indirect
  /// call, and the action moves once into the queue and once out.
  EventId schedule(SimTime when, Action&& action);

  /// Cancels a pending event in O(1). Cancelling an already-fired,
  /// already-cancelled, or invalid id is a no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the earliest live event. Precondition: !empty(). Drops
  /// cancelled entries ahead of it but leaves the cursor where it is.
  [[nodiscard]] SimTime next_time();

  struct Fired {
    SimTime when = 0;
    /// The id schedule() returned.
    EventId id = kInvalidEventId;
    /// 1-based schedule ordinal. Representation-independent provenance:
    /// equal-time events fire in increasing seq, and determinism digests
    /// key on it rather than on the slot/generation id encoding.
    std::uint64_t seq = 0;
    Action action;
  };

  /// Removes and returns the earliest live event, and moves the cursor up
  /// to its bucket. Precondition: !empty().
  Fired pop();

  /// Full queue state at a point in time: the wheel (slots with their
  /// bucket links, the non-empty buckets' heads and tails, the cursor), the
  /// overflow heap, the freelist chain, the tie-break counter, and a deep
  /// copy of every pending action. Restoring it into a queue replays the identical
  /// (when, seq, slot, gen) pop order, and ids minted before the capture
  /// stay cancellable. Move-only (actions are), and restorable any number
  /// of times.
  struct Snapshot {
    std::vector<Node> nodes;
    std::vector<Action> actions;  ///< per slot; empty for retired slots
    /// (index, list) of every non-empty bucket, in index order.
    std::vector<std::pair<std::uint32_t, Bucket>> buckets;
    std::int64_t cursor = 0;
    std::vector<Entry> heap;
    std::uint32_t free_head = 0xFFFFFFFFu;
    std::size_t live = 0;
    std::size_t stale = 0;
    std::uint64_t next_seq = 1;

    /// Queued entries, cancelled ones not yet dropped included: the
    /// wheel's list nodes plus the overflow heap.
    [[nodiscard]] std::size_t entries() const;
  };

  /// Captures the queue verbatim. Throws std::logic_error if any pending
  /// action holds a move-only callable (see Action::clonable) — kernel
  /// events are expected to capture pointers and copyable values only.
  [[nodiscard]] Snapshot snapshot() const;

  /// Rewinds the queue to `snap` (deep-copying its actions, so the same
  /// snapshot can seed many forks). Actions captured in the snapshot keep
  /// their embedded pointers, so restore only makes sense into the same
  /// object graph the snapshot was taken from.
  void restore(const Snapshot& snap);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInHeap = 0xFFFFFFFEu;
  static constexpr std::size_t kMask = kBuckets - 1;
  static constexpr std::size_t kUnknown = kBuckets + 1;

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

  /// Absolute bucket number of time `when` (floor of when / 2^11).
  static std::int64_t bucket_of(SimTime when) noexcept {
    return when >> kBucketBits;
  }

  /// Files `slot` into wheel bucket `index` behind every entry due no
  /// later than it (its seq is the largest yet, so that is its place in
  /// (when, seq) order).
  void link(std::uint32_t slot, std::size_t index) noexcept;

  /// Index of the first non-empty bucket at or after the cursor's, in
  /// wheel order. Precondition: some bucket is non-empty.
  [[nodiscard]] std::size_t first_occupied() const noexcept;

  /// Index of the bucket holding the earliest live wheel event, after
  /// unlinking the cancelled entries ahead of it; kBuckets when the wheel
  /// holds no live event.
  std::size_t wheel_front() noexcept;

  /// Whether the overflow heap's top fires before the head of wheel
  /// bucket `index` (kBuckets: the wheel holds no live event). Drops stale
  /// entries off the heap's top first.
  bool heap_first(std::size_t index) noexcept;

  /// Calls f(index) for every non-empty bucket, in index order.
  template <typename F>
  void for_each_occupied(F&& f) const {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        f((w << 6) | static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  void mark(std::size_t index) noexcept {
    occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
    occupied_words_ |= std::uint64_t{1} << (index >> 6);
  }
  void unmark(std::size_t index) noexcept {
    std::uint64_t& word = occupied_[index >> 6];
    word &= ~(std::uint64_t{1} << (index & 63));
    if (word == 0) occupied_words_ &= ~(std::uint64_t{1} << (index >> 6));
  }

  /// Removes the heap's top entry.
  void heap_pop() noexcept;

  /// Chains a slot onto the freelist (its generation already bumped).
  void free_slot(std::uint32_t slot) noexcept {
    nodes_[slot].next = free_head_;
    free_head_ = slot;
  }

  /// Bumps a slot's generation, skipping 0 (the invalid marker), so ids
  /// naming its current event go dead.
  void bump_gen(std::uint32_t slot) noexcept {
    if (++nodes_[slot].gen == 0) nodes_[slot].gen = 1;
  }

  /// Moves `slot`'s event out for firing and retires the slot.
  Fired fire(std::uint32_t slot) noexcept;

  /// Drops every stale heap entry and re-heapifies once they outnumber
  /// the live entries in the heap; each compaction is paid for by the
  /// cancels that made its stale entries. Keys are unique, so the pop
  /// order is unchanged.
  void compact_if_stale();

  std::vector<Node> nodes_;
  std::vector<Action> actions_;
  std::vector<Bucket> buckets_ = std::vector<Bucket>(kBuckets);
  /// Bit i of occupied_[w] is set when bucket 64 * w + i is non-empty;
  /// bit w of occupied_words_ when occupied_[w] is non-zero.
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  std::uint64_t occupied_words_ = 0;
  /// Absolute bucket number of the latest event popped so far (an event
  /// popped from before it leaves it alone). Every wheel entry lies in
  /// [cursor_, cursor_ + kBuckets).
  std::int64_t cursor_ = 0;
  std::vector<Entry> heap_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;   ///< scheduled and not yet fired/cancelled
  std::size_t stale_ = 0;  ///< cancelled entries still in heap_
  std::uint64_t next_seq_ = 1;
  /// Where next_time() found the earliest live event (a wheel bucket
  /// index, or kBuckets for the heap's top), so the pop() that follows
  /// need not search again; kUnknown once anything may have moved it.
  std::size_t front_ = kUnknown;
};

}  // namespace hsfi::sim
