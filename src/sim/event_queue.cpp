#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace hsfi::sim {

void EventQueue::heap_pop() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift `last` down from the root.
  std::size_t hole = 0;
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
    if (!Later{}(last, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = last;
}

void EventQueue::link(std::uint32_t slot, std::size_t index) noexcept {
  Bucket& b = buckets_[index];
  Node& n = nodes_[slot];
  n.next = kNoSlot;
  if (b.head == kNoSlot) {
    b.head = slot;
    b.tail = slot;
    mark(index);
  } else if (nodes_[b.tail].when <= n.when) {
    nodes_[b.tail].next = slot;
    b.tail = slot;
  } else if (n.when < nodes_[b.head].when) {
    n.next = b.head;
    b.head = slot;
  } else {
    // head.when <= n.when < tail.when: the walk stops before the tail.
    std::uint32_t prev = b.head;
    while (nodes_[nodes_[prev].next].when <= n.when) prev = nodes_[prev].next;
    n.next = nodes_[prev].next;
    nodes_[prev].next = slot;
  }
}

EventId EventQueue::schedule(SimTime when, Action&& action) {
  assert(action);
  front_ = kUnknown;
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = nodes_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    actions_.emplace_back();
  }
  Node& n = nodes_[slot];
  n.when = when;
  n.seq = next_seq_++;
  actions_[slot] = std::move(action);
  // A bucket before the cursor is a negative distance, which wraps to a
  // huge one and, like a bucket past the horizon, goes to the heap.
  const std::int64_t bucket = bucket_of(when);
  if (static_cast<std::uint64_t>(bucket - cursor_) < kBuckets) {
    link(slot, static_cast<std::size_t>(bucket) & kMask);
  } else {
    n.next = kInHeap;
    heap_.push_back(Entry{when, n.seq, slot, n.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_;
  return make_id(slot, n.gen);
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= nodes_.size() || nodes_[slot].gen != gen || gen == 0) return;
  front_ = kUnknown;
  // Release captured resources now.
  actions_[slot].reset();
  bump_gen(slot);
  --live_;
  if (nodes_[slot].next == kInHeap) {
    // The heap entry goes stale (its stamped generation no longer matches)
    // and is dropped when it surfaces or at the next compaction.
    free_slot(slot);
    ++stale_;
    compact_if_stale();
  } else {
    // Stays linked in its bucket until wheel_front() reaches it.
    nodes_[slot].seq = 0;
  }
}

void EventQueue::compact_if_stale() {
  if (stale_ <= heap_.size() - stale_) return;
  std::erase_if(heap_,
                [this](const Entry& e) { return nodes_[e.slot].gen != e.gen; });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_ = 0;
}

std::size_t EventQueue::first_occupied() const noexcept {
  const std::size_t from = static_cast<std::size_t>(cursor_) & kMask;
  std::size_t w = from >> 6;
  const std::uint64_t bits =
      occupied_[w] & (~std::uint64_t{0} << (from & 63));
  if (bits != 0) {
    return (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
  }
  // Words after w; failing those, wrap around to the first occupied word
  // (which may be w itself, below the cursor's bit).
  std::uint64_t words = occupied_words_ & (~std::uint64_t{1} << w);
  if (words == 0) words = occupied_words_;
  w = static_cast<std::size_t>(std::countr_zero(words));
  return (w << 6) | static_cast<std::size_t>(std::countr_zero(occupied_[w]));
}

std::size_t EventQueue::wheel_front() noexcept {
  while (occupied_words_ != 0) {
    const std::size_t index = first_occupied();
    Bucket& b = buckets_[index];
    std::uint32_t slot = b.head;
    while (slot != kNoSlot && nodes_[slot].seq == 0) {
      const std::uint32_t next = nodes_[slot].next;
      free_slot(slot);
      slot = next;
    }
    b.head = slot;
    if (slot != kNoSlot) return index;
    b.tail = kNoSlot;
    unmark(index);
  }
  return kBuckets;
}

bool EventQueue::heap_first(std::size_t index) noexcept {
  while (stale_ != 0 && nodes_[heap_.front().slot].gen != heap_.front().gen) {
    heap_pop();
    --stale_;
  }
  if (index == kBuckets) return true;
  if (heap_.empty()) return false;
  const Entry& top = heap_.front();
  const Node& head = nodes_[buckets_[index].head];
  return top.when != head.when ? top.when < head.when : top.seq < head.seq;
}

SimTime EventQueue::next_time() {
  assert(!empty());
  const std::size_t index = wheel_front();
  front_ = heap_first(index) ? kBuckets : index;
  return front_ == kBuckets ? heap_.front().when
                            : nodes_[buckets_[index].head].when;
}

EventQueue::Fired EventQueue::fire(std::uint32_t slot) noexcept {
  const Node& n = nodes_[slot];
  Fired fired{n.when, make_id(slot, n.gen), n.seq, std::move(actions_[slot])};
  bump_gen(slot);
  free_slot(slot);
  --live_;
  return fired;
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  std::size_t index = front_;
  front_ = kUnknown;
  if (index == kUnknown) {
    index = wheel_front();
    if (heap_first(index)) index = kBuckets;
  }
  if (index == kBuckets) {
    const std::uint32_t slot = heap_.front().slot;
    heap_pop();
    // Every wheel entry is due no earlier than this event, so the cursor
    // may move up to its bucket (never down: an entry scheduled before
    // the cursor also lands in the heap).
    cursor_ = std::max(cursor_, bucket_of(nodes_[slot].when));
    Fired fired = fire(slot);
    compact_if_stale();
    return fired;
  }
  Bucket& b = buckets_[index];
  const std::uint32_t slot = b.head;
  b.head = nodes_[slot].next;
  if (b.head == kNoSlot) {
    b.tail = kNoSlot;
    unmark(index);
  }
  cursor_ += static_cast<std::int64_t>(
      (index - static_cast<std::size_t>(cursor_)) & kMask);
  return fire(slot);
}

std::size_t EventQueue::Snapshot::entries() const {
  std::size_t n = heap.size();
  for (const auto& [index, b] : buckets) {
    for (std::uint32_t s = b.head; s != kNoSlot; s = nodes[s].next) ++n;
  }
  return n;
}

EventQueue::Snapshot EventQueue::snapshot() const {
  Snapshot snap;
  snap.nodes = nodes_;
  snap.actions.reserve(actions_.size());
  for (const Action& action : actions_) {
    if (!action.clonable()) {
      throw std::logic_error(
          "EventQueue::snapshot: a pending action holds a move-only "
          "callable and cannot be captured");
    }
    snap.actions.push_back(action.clone());
  }
  for_each_occupied([&](std::size_t index) {
    snap.buckets.emplace_back(static_cast<std::uint32_t>(index),
                              buckets_[index]);
  });
  snap.cursor = cursor_;
  snap.heap = heap_;
  snap.free_head = free_head_;
  snap.live = live_;
  snap.stale = stale_;
  snap.next_seq = next_seq_;
  return snap;
}

void EventQueue::restore(const Snapshot& snap) {
  nodes_ = snap.nodes;
  actions_.clear();
  actions_.reserve(snap.actions.size());
  for (const Action& action : snap.actions) actions_.push_back(action.clone());
  for_each_occupied([this](std::size_t index) { buckets_[index] = Bucket{}; });
  occupied_.fill(0);
  occupied_words_ = 0;
  for (const auto& [index, bucket] : snap.buckets) {
    buckets_[index] = bucket;
    mark(index);
  }
  cursor_ = snap.cursor;
  heap_ = snap.heap;
  free_head_ = snap.free_head;
  live_ = snap.live;
  stale_ = snap.stale;
  next_seq_ = snap.next_seq;
  front_ = kUnknown;
}

}  // namespace hsfi::sim
