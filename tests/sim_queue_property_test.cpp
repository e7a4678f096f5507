// Property test: the slot/generation EventQueue against a naive reference.
//
// The reference is a std::multimap<(when, schedule order), token> — the
// obviously-correct encoding of the queue's contract: events fire in time
// order, ties in scheduling order, cancellation removes exactly the one
// event named by the id. A seeded generator drives ~10k random
// schedule/cancel/fire operations through both implementations and checks
// they agree step for step, across several seeds (one of which stays on a
// single timestamp, the pure tie-break regime, and one of which cancels
// aggressively enough to churn the freelist hard). Lanes get the same
// treatment, mixed with plain events, and across snapshot/restore; a
// far-future cancel churn pins the bound on stale heap entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace {

using hsfi::sim::EventId;
using hsfi::sim::EventQueue;
using hsfi::sim::SimTime;

/// Reference model: key = (when, schedule counter) so equal times fire in
/// scheduling order; value = the token the real queue's action records.
class ReferenceQueue {
 public:
  std::uint64_t schedule(SimTime when, std::uint64_t token) {
    const std::uint64_t ref_id = next_id_++;
    by_id_.emplace(ref_id, pending_.emplace(std::make_pair(when, ref_id), token));
    return ref_id;
  }

  /// Returns true when the id named a pending event (mirrors the real
  /// queue's cancel-is-noop-after-fire semantics).
  bool cancel(std::uint64_t ref_id) {
    const auto it = by_id_.find(ref_id);
    if (it == by_id_.end()) return false;
    pending_.erase(it->second);
    by_id_.erase(it);
    return true;
  }

  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] SimTime next_time() const {
    return pending_.begin()->first.first;
  }

  /// Pops the earliest event, returning (when, token).
  std::pair<SimTime, std::uint64_t> pop() {
    const auto it = pending_.begin();
    const std::pair<SimTime, std::uint64_t> out{it->first.first, it->second};
    by_id_.erase(it->first.second);
    pending_.erase(it);
    return out;
  }

 private:
  using Pending = std::multimap<std::pair<SimTime, std::uint64_t>, std::uint64_t>;
  Pending pending_;
  std::map<std::uint64_t, Pending::iterator> by_id_;
  std::uint64_t next_id_ = 1;
};

struct Scenario {
  std::uint64_t seed;
  int ops;
  SimTime time_span;   ///< timestamps drawn from [now, now + span]
  int cancel_percent;  ///< weight of cancel ops (fires get the remainder)
};

class SimQueuePropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimQueuePropertyTest, AgreesWithNaiveMultimapReference) {
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed);

  EventQueue queue;
  ReferenceQueue reference;
  // Live events, as (real id, reference id, token) triples the cancel arm
  // picks from. Token identifies the event across both implementations.
  struct Live {
    EventId id;
    std::uint64_t ref_id;
    std::uint64_t token;
  };
  std::vector<Live> live;
  std::vector<std::uint64_t> fired_log;  // real queue appends on fire
  std::set<EventId> ids_seen;            // no id reuse while generations hold
  std::uint64_t next_token = 1;
  SimTime now = 0;

  for (int op = 0; op < scenario.ops; ++op) {
    const auto roll = static_cast<int>(rng() % 100);
    if (roll < 50 || live.empty()) {
      // Schedule. A quarter of the draws land exactly on `now`, so the
      // tie-break path is exercised constantly, not incidentally.
      const SimTime when =
          scenario.time_span == 0 || rng() % 4 == 0
              ? now
              : now + static_cast<SimTime>(
                          rng() % static_cast<std::uint64_t>(scenario.time_span));
      const std::uint64_t token = next_token++;
      const EventId id = queue.schedule(
          when, [token, &fired_log] { fired_log.push_back(token); });
      const std::uint64_t ref_id = reference.schedule(when, token);
      EXPECT_NE(id, hsfi::sim::kInvalidEventId);
      EXPECT_TRUE(ids_seen.insert(id).second)
          << "EventId " << id << " handed out twice while the first holder "
          << "could still cancel it";
      live.push_back({id, ref_id, token});
    } else if (roll < 50 + scenario.cancel_percent) {
      // Cancel a random live event; both sides must drop exactly it.
      const std::size_t pick = rng() % live.size();
      const Live victim = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      queue.cancel(victim.id);
      EXPECT_TRUE(reference.cancel(victim.ref_id));
      queue.cancel(victim.id);  // double-cancel must be a no-op
      EXPECT_EQ(queue.size(), reference.size());
    } else {
      // Fire the front event; time, token, and fire order must agree.
      ASSERT_FALSE(queue.empty());
      ASSERT_EQ(queue.next_time(), reference.next_time());
      auto fired = queue.pop();
      const auto expected = reference.pop();
      EXPECT_EQ(fired.when, expected.first);
      EXPECT_GE(fired.when, now);
      now = fired.when;
      fired.action();
      ASSERT_FALSE(fired_log.empty());
      EXPECT_EQ(fired_log.back(), expected.second)
          << "front events disagree at op " << op;
      std::erase_if(live, [&](const Live& l) { return l.id == fired.id; });
      // A fired id is dead: cancelling it must not disturb anything.
      queue.cancel(fired.id);
      EXPECT_EQ(queue.size(), reference.size());
    }
    ASSERT_EQ(queue.size(), reference.size());
    ASSERT_EQ(queue.empty(), reference.empty());
  }

  // Drain: remaining events fire in exactly the reference order.
  while (!reference.empty()) {
    ASSERT_FALSE(queue.empty());
    auto fired = queue.pop();
    const auto expected = reference.pop();
    ASSERT_EQ(fired.when, expected.first);
    fired.action();
    ASSERT_EQ(fired_log.back(), expected.second);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SimQueuePropertyTest,
    ::testing::Values(
        // The workhorse: mixed times, moderate cancellation.
        Scenario{0xA11CE, 10'000, 1'000'000, 20},
        // Single-timestamp regime: every comparison is a tie-break.
        Scenario{0xB0B, 10'000, 0, 20},
        // Cancel-heavy: churns generations and the slot freelist.
        Scenario{0xC0FFEE, 10'000, 1'000, 45},
        // Long horizon, rare cancels: deep heaps.
        Scenario{0xD15EA5E, 10'000, 1'000'000'000, 5}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

// ---------------------------------------------------------------------------
// Snapshot/restore: capturing the queue mid-scenario and restoring it must
// replay the identical (when, seq, slot, gen) pop order — not just the
// same tokens, but the same id encodings, because the orchestrator's
// snapshot/fork path restores a queue in place and outstanding EventIds
// must stay cancellable afterwards.

/// One popped event, fully identified: fire time, schedule ordinal, and
/// the slot/generation halves of the EventId.
struct PopRecord {
  SimTime when;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
  std::uint64_t token;

  bool operator==(const PopRecord&) const = default;
};

/// Drains `queue`, executing every action (tokens land in `log`) and
/// recording the full identity of each pop.
std::vector<PopRecord> drain(EventQueue& queue,
                             std::vector<std::uint64_t>& log) {
  std::vector<PopRecord> out;
  while (!queue.empty()) {
    auto fired = queue.pop();
    const std::size_t before = log.size();
    fired.action();
    const std::uint64_t token = log.size() > before ? log.back() : 0;
    out.push_back({fired.when, fired.seq,
                   static_cast<std::uint32_t>(fired.id >> 32),
                   static_cast<std::uint32_t>(fired.id & 0xFFFFFFFFu),
                   token});
  }
  return out;
}

class SimQueueSnapshotTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimQueueSnapshotTest, RestoreReplaysIdenticalPopOrder) {
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed);

  // Churn the queue with the scenario's op mix (schedule/cancel/pop) so
  // the snapshot lands on a non-trivial slot/generation/freelist state,
  // then capture mid-scenario.
  EventQueue queue;
  std::vector<std::uint64_t> log;  // actions append here when fired
  std::vector<EventId> live;
  std::uint64_t next_token = 1;
  SimTime now = 0;
  for (int op = 0; op < scenario.ops; ++op) {
    const auto roll = static_cast<int>(rng() % 100);
    if (roll < 50 || live.empty()) {
      const SimTime when =
          scenario.time_span == 0 || rng() % 4 == 0
              ? now
              : now + static_cast<SimTime>(
                          rng() % static_cast<std::uint64_t>(scenario.time_span));
      const std::uint64_t token = next_token++;
      live.push_back(
          queue.schedule(when, [token, &log] { log.push_back(token); }));
    } else if (roll < 50 + scenario.cancel_percent) {
      const std::size_t pick = rng() % live.size();
      queue.cancel(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (!queue.empty()) {
      auto fired = queue.pop();
      now = fired.when;
      fired.action();
      std::erase(live, fired.id);
    }
  }
  ASSERT_FALSE(queue.empty()) << "scenario must leave pending events";

  const EventQueue::Snapshot snap = queue.snapshot();

  // Original pop order, from the snapshot point to empty.
  log.clear();
  const auto original = drain(queue, log);
  const auto original_log = log;

  // One snapshot, two independent restores (a snapshot seeds many forks):
  // each must replay the identical order, ids included.
  for (int fork = 0; fork < 2; ++fork) {
    EventQueue restored;
    restored.restore(snap);
    ASSERT_EQ(restored.size(), snap.live);
    log.clear();
    const auto replay = drain(restored, log);
    EXPECT_EQ(replay, original)
        << "fork " << fork << " diverged in (when, seq, slot, gen) order";
    EXPECT_EQ(log, original_log);
  }
}

TEST_P(SimQueueSnapshotTest, RestoredIdsStayCancellable) {
  // Ids minted before the snapshot must name the same events in the
  // restored queue: cancelling one there removes exactly that event.
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed ^ 0x5eedULL);

  EventQueue queue;
  std::vector<std::uint64_t> log;
  struct Live {
    EventId id;
    std::uint64_t token;
  };
  std::vector<Live> live;
  for (int i = 0; i < 200; ++i) {
    const SimTime when = scenario.time_span == 0
                             ? 0
                             : static_cast<SimTime>(
                                   rng() % static_cast<std::uint64_t>(
                                               scenario.time_span));
    const std::uint64_t token = 1000 + static_cast<std::uint64_t>(i);
    live.push_back(
        {queue.schedule(when, [token, &log] { log.push_back(token); }),
         token});
  }
  const EventQueue::Snapshot snap = queue.snapshot();

  EventQueue restored;
  restored.restore(snap);
  const Live victim = live[static_cast<std::size_t>(rng() % live.size())];
  restored.cancel(victim.id);
  EXPECT_EQ(restored.size(), queue.size() - 1);

  log.clear();
  drain(restored, log);
  EXPECT_EQ(std::count(log.begin(), log.end(), victim.token), 0)
      << "cancelling a pre-snapshot id must remove exactly that event";
  EXPECT_EQ(log.size(), live.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SimQueueSnapshotTest,
    ::testing::Values(
        // Cancel-heavy: the snapshot carries a churned freelist and many
        // retired generations.
        Scenario{0xC0FFEE, 10'000, 1'000, 45},
        // Single-timestamp: restored order is pure seq tie-breaking.
        Scenario{0xB0B, 10'000, 0, 20}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

// ---------------------------------------------------------------------------
// Lanes: FIFO streams whose heads alone sit in the heap. Mixed with plain
// schedules, cancels and pops, lane events must still fire in the
// reference's exact (when, schedule order), since every event draws its
// seq from the one counter.

TEST(SimQueueLaneTest, LanesAgreeWithNaiveMultimapReference) {
  std::mt19937_64 rng(0x1A7E5);
  EventQueue queue;
  ReferenceQueue reference;
  constexpr std::size_t kLanes = 4;
  std::vector<EventQueue::LaneId> lanes;
  std::vector<SimTime> lane_tail(kLanes, 0);
  for (std::size_t l = 0; l < kLanes; ++l) lanes.push_back(queue.add_lane());
  struct Live {
    EventId id;
    std::uint64_t ref_id;
  };
  std::vector<Live> live;  // plain events: lane events cannot be cancelled
  std::vector<std::uint64_t> fired_log;
  std::uint64_t next_token = 1;
  SimTime now = 0;

  for (int op = 0; op < 20'000; ++op) {
    const auto roll = static_cast<int>(rng() % 100);
    const std::uint64_t token = next_token;
    auto record = [token, &fired_log] { fired_log.push_back(token); };
    if (roll < 45) {
      // Lane append, at or after the lane's last append (the stream lanes
      // exist for), ties included. One in ten lands earlier instead, which
      // the queue must route through the heap without reordering anything.
      const std::size_t l = rng() % kLanes;
      SimTime when = std::max(now, lane_tail[l]) +
                     static_cast<SimTime>(rng() % 400);
      if (rng() % 10 == 0) {
        when = now + static_cast<SimTime>(rng() % 400);
      } else {
        lane_tail[l] = when;
      }
      queue.schedule_lane(lanes[l], when, record);
      reference.schedule(when, token);
      ++next_token;
    } else if (roll < 70 || reference.empty()) {
      const SimTime when =
          rng() % 4 == 0 ? now : now + static_cast<SimTime>(rng() % 1'000);
      live.push_back({queue.schedule(when, record),
                      reference.schedule(when, token)});
      ++next_token;
    } else if (roll < 80 && !live.empty()) {
      const std::size_t pick = rng() % live.size();
      queue.cancel(live[pick].id);
      reference.cancel(live[pick].ref_id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      ASSERT_EQ(queue.next_time(), reference.next_time());
      auto fired = queue.pop();
      const auto expected = reference.pop();
      EXPECT_EQ(fired.when, expected.first);
      now = fired.when;
      fired.action();
      ASSERT_EQ(fired_log.back(), expected.second)
          << "front events disagree at op " << op;
      std::erase_if(live, [&](const Live& l) { return l.id == fired.id; });
    }
    ASSERT_EQ(queue.size(), reference.size());
  }

  while (!reference.empty()) {
    auto fired = queue.pop();
    const auto expected = reference.pop();
    ASSERT_EQ(fired.when, expected.first);
    fired.action();
    ASSERT_EQ(fired_log.back(), expected.second);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(SimQueueLaneTest, RestoreReplaysNonEmptyLanesTwice) {
  std::mt19937_64 rng(0x5AFE);
  EventQueue queue;
  std::vector<std::uint64_t> log;
  const EventQueue::LaneId lane_a = queue.add_lane();
  const EventQueue::LaneId lane_b = queue.add_lane();
  SimTime tail_a = 0;
  SimTime tail_b = 0;
  SimTime now = 0;
  std::uint64_t next_token = 1;
  std::vector<EventId> plain;
  for (int op = 0; op < 4'000; ++op) {
    const std::uint64_t token = next_token++;
    auto record = [token, &log] { log.push_back(token); };
    switch (rng() % 5) {
      case 0:
        tail_a = std::max(now, tail_a) + static_cast<SimTime>(rng() % 300);
        queue.schedule_lane(lane_a, tail_a, record);
        break;
      case 1:
        tail_b = std::max(now, tail_b) + static_cast<SimTime>(rng() % 300);
        queue.schedule_lane(lane_b, tail_b, record);
        break;
      case 2:
        plain.push_back(
            queue.schedule(now + static_cast<SimTime>(rng() % 600), record));
        break;
      case 3:
        if (!plain.empty()) {
          queue.cancel(plain[rng() % plain.size()]);
          break;
        }
        [[fallthrough]];
      default:
        if (!queue.empty()) {
          auto fired = queue.pop();
          now = fired.when;
          fired.action();
        }
    }
  }
  const EventQueue::Snapshot snap = queue.snapshot();
  ASSERT_GE(snap.lanes.size(), 2u);
  ASSERT_FALSE(snap.lanes[lane_a].empty());
  ASSERT_FALSE(snap.lanes[lane_b].empty());

  // After the capture each timeline appends the same events (a lane tail,
  // a tie with it on the other lane, a plain event at the same time), so
  // lanes must stay usable across restore with the seq counter intact.
  const SimTime later = std::max(tail_a, tail_b) + 1;
  const auto extend = [&](EventQueue& q) {
    q.schedule_lane(lane_a, later, [&log] { log.push_back(1'000'001); });
    q.schedule_lane(lane_b, later, [&log] { log.push_back(1'000'002); });
    q.schedule(later, [&log] { log.push_back(1'000'003); });
  };
  extend(queue);
  log.clear();
  const auto original = drain(queue, log);
  const auto original_log = log;
  ASSERT_EQ(original_log.back(), 1'000'003u);

  // Restore in place, as a forked run does, twice from one snapshot.
  for (int fork = 0; fork < 2; ++fork) {
    queue.restore(snap);
    ASSERT_EQ(queue.size(), snap.live);
    extend(queue);
    log.clear();
    EXPECT_EQ(drain(queue, log), original) << "fork " << fork;
    EXPECT_EQ(log, original_log) << "fork " << fork;
  }
}

// ---------------------------------------------------------------------------
// Stale entries: a switch arms a far-future long timeout per packet and
// cancels it when the packet closes. Lazy deletion alone would keep every
// cancelled entry in the heap until its (distant) time surfaced; the queue
// must compact so cancelled entries never outnumber live ones.

TEST(SimQueueCompactionTest, FarFutureCancelChurnKeepsHeapBounded) {
  constexpr SimTime kLongTimeout = 50'000'000'000;  // 50 ms in ps
  constexpr std::uint64_t kTimers = 16;
  EventQueue queue;
  std::vector<std::uint64_t> log;
  for (std::uint64_t t = 0; t < kTimers; ++t) {
    queue.schedule(2 * kLongTimeout + static_cast<SimTime>(t),
                   [t, &log] { log.push_back(t); });
  }
  SimTime now = 0;
  for (int i = 0; i < 10'000; ++i) {
    const EventId timeout = queue.schedule(now + kLongTimeout, [] {});
    queue.schedule(now + 100, [] {});
    queue.cancel(timeout);
    auto fired = queue.pop();
    ASSERT_EQ(fired.when, now + 100);
    now = fired.when;
    fired.action();
    // No lanes here, so every live event sits in the heap.
    ASSERT_LE(queue.snapshot().heap.size(), 2 * queue.size())
        << "after " << i + 1 << " cancelled timeouts";
  }
  drain(queue, log);
  std::vector<std::uint64_t> expected(kTimers);
  for (std::uint64_t t = 0; t < kTimers; ++t) expected[t] = t;
  EXPECT_EQ(log, expected);
}

}  // namespace
