#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace hsfi::sim {

void EventQueue::push(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::replace_front(const Entry& e) noexcept {
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
    if (!Later{}(e, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = e;
}

void EventQueue::pop_front() noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) replace_front(last);
}

EventId EventQueue::schedule(SimTime when, Action&& action) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  push(Entry{when, next_seq_++, slot, s.gen});
  ++live_;
  return make_id(slot, s.gen);
}

EventQueue::LaneId EventQueue::add_lane() {
  lanes_.emplace_back();
  return static_cast<LaneId>(lanes_.size() - 1);
}

void EventQueue::Lane::grow() {
  std::vector<LaneEvent> bigger(ring.empty() ? 8 : 2 * ring.size());
  for (std::uint32_t i = 0; i < count; ++i) bigger[i] = std::move(at(i));
  ring = std::move(bigger);
  head = 0;
}

void EventQueue::Lane::clear() noexcept {
  for (std::uint32_t i = 0; i < count; ++i) at(i).action.reset();
  head = 0;
  count = 0;
}

void EventQueue::schedule_lane(LaneId lane_id, SimTime when,
                               Action&& action) {
  Lane& lane = lanes_[lane_id];
  if (lane.count != 0 && when < lane.at(lane.count - 1).when) {
    schedule(when, std::move(action));
    return;
  }
  if (lane.count == lane.ring.size()) lane.grow();
  LaneEvent& ev = lane.at(lane.count);
  ev.when = when;
  ev.seq = next_seq_++;
  ev.action = std::move(action);
  if (lane.count++ == 0) push(Entry{when, ev.seq, kLaneFlag | lane_id, 0});
  ++live_;
}

void EventQueue::retire(std::uint32_t slot_index) noexcept {
  Slot& s = slots_[slot_index];
  if (++s.gen == 0) s.gen = 1;  // 0 is reserved for kInvalidEventId
  s.next_free = free_head_;
  free_head_ = slot_index;
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].gen != gen || gen == 0) return;
  // Release captured resources now; the heap entry goes stale (its stamped
  // generation no longer matches) and is dropped when it reaches the front
  // or at the next compaction.
  slots_[slot].action.reset();
  retire(slot);
  --live_;
  ++stale_;
  compact_if_stale();
}

void EventQueue::compact_if_stale() {
  if (stale_ <= heap_.size() - stale_) return;
  std::erase_if(heap_, [this](const Entry& e) { return is_stale(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_ = 0;
}

EventQueue::Fired EventQueue::pop() {
  drop_stale_front();
  assert(!heap_.empty());
  const Entry e = heap_.front();
  Fired fired{e.when, kInvalidEventId, e.seq, {}};
  --live_;
  if ((e.slot & kLaneFlag) != 0) {
    Lane& lane = lanes_[e.slot & ~kLaneFlag];
    fired.action = std::move(lane.at(0).action);
    lane.head = (lane.head + 1) & lane.mask();
    if (--lane.count != 0) {
      // The lane's next event takes the head's place: one sift-down from
      // the root, and the heap never holds more than one entry per lane.
      const LaneEvent& next = lane.at(0);
      replace_front(Entry{next.when, next.seq, e.slot, 0});
      return fired;
    }
  } else {
    fired.id = make_id(e.slot, e.gen);
    fired.action = std::move(slots_[e.slot].action);
    retire(e.slot);
  }
  pop_front();
  compact_if_stale();
  return fired;
}

EventQueue::Snapshot EventQueue::snapshot() const {
  const auto clone = [](const Action& action) {
    if (!action.clonable()) {
      throw std::logic_error(
          "EventQueue::snapshot: a pending action holds a move-only "
          "callable and cannot be captured");
    }
    return action.clone();
  };
  Snapshot snap;
  snap.heap = heap_;
  snap.slots.reserve(slots_.size());
  for (const Slot& s : slots_) {
    Snapshot::SlotState state;
    state.action = clone(s.action);
    state.gen = s.gen;
    state.next_free = s.next_free;
    snap.slots.push_back(std::move(state));
  }
  snap.lanes.resize(lanes_.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const Lane& lane = lanes_[l];
    snap.lanes[l].reserve(lane.count);
    for (std::uint32_t i = 0; i < lane.count; ++i) {
      const LaneEvent& ev = lane.at(i);
      snap.lanes[l].push_back(LaneEvent{ev.when, ev.seq, clone(ev.action)});
    }
  }
  snap.free_head = free_head_;
  snap.live = live_;
  snap.stale = stale_;
  snap.next_seq = next_seq_;
  return snap;
}

void EventQueue::restore(const Snapshot& snap) {
  heap_ = snap.heap;
  slots_.clear();
  slots_.reserve(snap.slots.size());
  for (const Snapshot::SlotState& state : snap.slots) {
    Slot s;
    s.action = state.action.clone();
    s.gen = state.gen;
    s.next_free = state.next_free;
    slots_.push_back(std::move(s));
  }
  if (lanes_.size() < snap.lanes.size()) lanes_.resize(snap.lanes.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = lanes_[l];
    lane.clear();
    if (l >= snap.lanes.size()) continue;
    for (const LaneEvent& ev : snap.lanes[l]) {
      if (lane.count == lane.ring.size()) lane.grow();
      LaneEvent& slot = lane.at(lane.count++);
      slot.when = ev.when;
      slot.seq = ev.seq;
      slot.action = ev.action.clone();
    }
  }
  free_head_ = snap.free_head;
  live_ = snap.live;
  stale_ = snap.stale;
  next_seq_ = snap.next_seq;
}

}  // namespace hsfi::sim
