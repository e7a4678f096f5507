// Property test: the calendar-queue EventQueue against a naive reference.
//
// The reference is a std::multimap<(when, schedule order), token> — the
// obviously-correct encoding of the queue's contract: events fire in time
// order, ties in scheduling order, cancellation removes exactly the one
// event named by the id. A seeded generator drives ~10k random
// schedule/cancel/fire operations through both implementations and checks
// they agree step for step, across several regimes: a single timestamp
// (pure tie-breaking), aggressive cancellation (freelist churn), time
// spans that straddle the wheel's bucket edges and horizon, time-ordered
// streams mixed with out-of-order schedules, and peeks at next_time()
// that skip cancelled fronts before scheduling at a stopped clock.
// Snapshot/restore must replay the identical pop order, ids included;
// events scheduled before the cursor must not move it; and a far-future
// cancel churn pins the bound on stale overflow entries.
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
  [[nodiscard]] std::uint64_t front_token() const {
    return pending_.begin()->second;
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
  /// Time-ordered streams fed alongside the plain draws (0: none), the way
  /// a channel's deliveries or a switch's forwarding events arrive.
  int streams;
  SimTime time_span;   ///< timestamps drawn from [now, now + span)
  int cancel_percent;  ///< weight of cancel ops (fires get the remainder)
  /// Weight of peek ops: read next_time() without popping and cancel the
  /// front events; half the time, peek again, let the clock stop short of
  /// the new front and schedule at the new now (what Simulator::run_until
  /// does when it stops at `until`).
  int peek_percent;
};

/// Draws schedule times in a scenario's regime. A quarter of the plain
/// draws land exactly on `now`, so the tie-break path is exercised
/// constantly, not incidentally. With streams, 45% of the draws append to
/// a random stream at or after its last append, ties included, and one in
/// ten of those lands earlier instead, out of stream order.
class Timeline {
 public:
  explicit Timeline(const Scenario& scenario)
      : span_(scenario.time_span),
        tails_(static_cast<std::size_t>(scenario.streams), 0) {}

  SimTime draw(std::mt19937_64& rng, SimTime now) {
    SimTime when = now;
    if (!tails_.empty() && rng() % 100 < 45) {
      SimTime& tail = tails_[rng() % tails_.size()];
      when = std::max(now, tail) + offset(rng);
      if (rng() % 10 == 0) {
        when = now + offset(rng);
      } else {
        tail = when;
      }
    } else if (span_ != 0 && rng() % 4 != 0) {
      when = now + offset(rng);
    }
    latest_ = std::max(latest_, when);
    return when;
  }

  /// The latest time drawn so far.
  [[nodiscard]] SimTime latest() const { return latest_; }

 private:
  SimTime offset(std::mt19937_64& rng) const {
    if (span_ == 0) return 0;
    return static_cast<SimTime>(rng() % static_cast<std::uint64_t>(span_));
  }

  SimTime span_;
  std::vector<SimTime> tails_;
  SimTime latest_ = 0;
};

class SimQueuePropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimQueuePropertyTest, AgreesWithNaiveMultimapReference) {
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed);
  Timeline timeline(scenario);

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

  const auto schedule = [&](SimTime when) {
    const std::uint64_t token = next_token++;
    const EventId id = queue.schedule(
        when, [token, &fired_log] { fired_log.push_back(token); });
    const std::uint64_t ref_id = reference.schedule(when, token);
    EXPECT_NE(id, hsfi::sim::kInvalidEventId);
    EXPECT_TRUE(ids_seen.insert(id).second)
        << "EventId " << id << " handed out twice while the first holder "
        << "could still cancel it";
    live.push_back({id, ref_id, token});
  };
  const auto cancel = [&](std::size_t pick) {
    // Both sides must drop exactly the picked event.
    const Live victim = live[pick];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    queue.cancel(victim.id);
    EXPECT_TRUE(reference.cancel(victim.ref_id));
    queue.cancel(victim.id);  // double-cancel must be a no-op
    EXPECT_EQ(queue.size(), reference.size());
  };

  for (int op = 0; op < scenario.ops; ++op) {
    const auto roll = static_cast<int>(rng() % 100);
    if (roll < 50 || live.empty()) {
      schedule(timeline.draw(rng, now));
    } else if (roll < 50 + scenario.cancel_percent) {
      cancel(rng() % live.size());
    } else if (roll < 50 + scenario.cancel_percent + scenario.peek_percent) {
      // Peek without popping, then cancel one or two front events: a
      // later pop must not trust the front the peek found.
      ASSERT_EQ(queue.next_time(), reference.next_time());
      for (int n = 1 + static_cast<int>(rng() % 2); n > 0 && !live.empty();
           --n) {
        const std::uint64_t front = reference.front_token();
        cancel(static_cast<std::size_t>(
            std::find_if(live.begin(), live.end(),
                         [front](const Live& l) { return l.token == front; }) -
            live.begin()));
      }
      if (rng() % 2 == 0) {
        if (!reference.empty()) {
          // Peek past the cancelled fronts, then stop the clock anywhere
          // short of the live front, as run_until does at `until`.
          const SimTime next = queue.next_time();
          ASSERT_EQ(next, reference.next_time());
          now += static_cast<SimTime>(
              rng() % static_cast<std::uint64_t>(next - now + 1));
        }
        // An event at the stopped clock must fire ahead of everything
        // later (the queue must not file it one wheel revolution late).
        schedule(now);
      }
    } else {
      // Fire the front event; time, token, and fire order must agree.
      // Every other pop skips next_time(), so a pop after a peek, then a
      // schedule or cancel, must not trust the front the peek found.
      ASSERT_FALSE(queue.empty());
      if (op % 2 == 0) {
        ASSERT_EQ(queue.next_time(), reference.next_time());
      }
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
        Scenario{0xA11CE, 10'000, 0, 1'000'000, 20, 0},
        // Single-timestamp regime: every comparison is a tie-break.
        Scenario{0xB0B, 10'000, 0, 0, 20, 0},
        // Cancel-heavy: churns generations and the slot freelist.
        Scenario{0xC0FFEE, 10'000, 0, 1'000, 45, 0},
        // Long horizon, rare cancels: most events wait in the overflow heap.
        Scenario{0xD15EA5E, 10'000, 0, 1'000'000'000, 5, 0},
        // Time-ordered streams mixed with out-of-order schedules, cancels
        // and pops.
        Scenario{0x1A7E5, 20'000, 4, 1'000, 10, 0},
        // Spans that straddle bucket edges (one bucket, 2048 ps; FC's
        // 9412 ps character period) and the wheel's 8.4 µs horizon, with
        // peeks that skip cancelled fronts and schedule at a stopped clock.
        Scenario{2'048, 10'000, 0, 2'048, 20, 10},
        Scenario{9'412, 10'000, 4, 9'412, 20, 10},
        Scenario{8'388'608, 10'000, 0, 8'388'608, 20, 10},
        Scenario{16'777'216, 10'000, 4, 16'777'216, 30, 10}),
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

/// Churns `queue` with `scenario`'s op mix (schedule/cancel/pop) so a
/// snapshot lands on a non-trivial slot/generation/freelist state. Fired
/// actions append their tokens to `log`. Returns the clock: the time of
/// the last pop.
SimTime churn(EventQueue& queue, const Scenario& scenario,
              std::mt19937_64& rng, Timeline& timeline,
              std::vector<std::uint64_t>& log) {
  std::vector<EventId> live;
  std::uint64_t next_token = 1;
  SimTime now = 0;
  for (int op = 0; op < scenario.ops; ++op) {
    const auto roll = static_cast<int>(rng() % 100);
    if (roll < 50 || live.empty()) {
      const std::uint64_t token = next_token++;
      live.push_back(queue.schedule(timeline.draw(rng, now),
                                    [token, &log] { log.push_back(token); }));
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
  return now;
}

class SimQueueSnapshotTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SimQueueSnapshotTest, RestoreReplaysIdenticalPopOrder) {
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed);
  Timeline timeline(scenario);

  EventQueue queue;
  std::vector<std::uint64_t> log;  // actions append here when fired
  churn(queue, scenario, rng, timeline, log);
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

TEST_P(SimQueueSnapshotTest, RestoreInPlaceTwiceWithPendingStreams) {
  // A forked run restores into the queue that ran on. After the capture
  // each timeline schedules the same events (one at the clock, three tied
  // after everything pending), so the cursor and the seq counter must come
  // back intact, twice from one snapshot.
  const Scenario scenario = GetParam();
  std::mt19937_64 rng(scenario.seed ^ 0x1ACEULL);
  Timeline timeline(scenario);

  EventQueue queue;
  std::vector<std::uint64_t> log;
  const SimTime now = churn(queue, scenario, rng, timeline, log);
  ASSERT_FALSE(queue.empty()) << "scenario must leave pending events";
  const EventQueue::Snapshot snap = queue.snapshot();

  const SimTime later = timeline.latest() + 1;
  const auto extend = [&](EventQueue& q) {
    q.schedule(now, [&log] { log.push_back(1'000'000); });
    for (std::uint64_t t = 1; t <= 3; ++t) {
      q.schedule(later, [t, &log] { log.push_back(1'000'000 + t); });
    }
  };
  extend(queue);
  log.clear();
  const auto original = drain(queue, log);
  const auto original_log = log;
  ASSERT_EQ(original_log.back(), 1'000'003u);

  for (int fork = 0; fork < 2; ++fork) {
    queue.restore(snap);
    ASSERT_EQ(queue.size(), snap.live);
    extend(queue);
    log.clear();
    EXPECT_EQ(drain(queue, log), original) << "fork " << fork;
    EXPECT_EQ(log, original_log) << "fork " << fork;
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
        Scenario{0xC0FFEE, 10'000, 0, 1'000, 45, 0},
        // Single-timestamp: restored order is pure seq tie-breaking.
        Scenario{0xB0B, 10'000, 0, 0, 20, 0},
        // Two time-ordered streams pending at the capture.
        Scenario{0x5AFE, 4'000, 2, 600, 20, 0}),
    [](const ::testing::TestParamInfo<Scenario>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

// ---------------------------------------------------------------------------
// Events before the cursor: the Simulator never schedules before now(), but
// the raw queue takes any time. Events earlier than the last pop (negative
// times included) go to the overflow heap and must still fire in (when,
// seq) order. The cursor must stay the furthest bucket popped so far: an
// event popped from before it must not move it, or every wheel entry would
// sit outside [cursor, cursor + kBuckets).

TEST(SimQueueCursorTest, EventsBeforeTheCursorFireInOrder) {
  std::mt19937_64 rng(0xBAC4);
  EventQueue queue;
  ReferenceQueue reference;
  std::vector<std::uint64_t> log;
  SimTime now = 0;
  std::int64_t furthest = 0;  // bucket of the latest event popped so far
  for (std::uint64_t token = 1; token <= 20'000; ++token) {
    if (rng() % 2 == 0 || reference.empty()) {
      // Anywhere from 10 µs before the last pop to 10 µs after it.
      const SimTime when =
          now - 10'000'000 + static_cast<SimTime>(rng() % 20'000'000);
      queue.schedule(when, [token, &log] { log.push_back(token); });
      reference.schedule(when, token);
    } else {
      auto fired = queue.pop();
      const auto expected = reference.pop();
      ASSERT_EQ(fired.when, expected.first);
      fired.action();
      ASSERT_EQ(log.back(), expected.second);
      now = fired.when;
      furthest = std::max(furthest, now >> EventQueue::kBucketBits);
      ASSERT_EQ(queue.snapshot().cursor, furthest) << "after token " << token;
    }
  }
  while (!reference.empty()) {
    auto fired = queue.pop();
    const auto expected = reference.pop();
    ASSERT_EQ(fired.when, expected.first);
    fired.action();
    ASSERT_EQ(log.back(), expected.second);
  }
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// Stale entries: a switch arms a far-future long timeout per packet and
// cancels it when the packet closes. Those land in the overflow heap, where
// lazy deletion alone would keep every cancelled entry until its (distant)
// time surfaced; the queue must compact so cancelled entries never
// outnumber live ones.

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
    // Every queued entry counts, stale ones included: the heap's timers
    // and cancelled timeouts, and the wheel's near events.
    ASSERT_LE(queue.snapshot().entries(), 2 * queue.size())
        << "after " << i + 1 << " cancelled timeouts";
  }
  drain(queue, log);
  std::vector<std::uint64_t> expected(kTimers);
  for (std::uint64_t t = 0; t < kTimers; ++t) expected[t] = t;
  EXPECT_EQ(log, expected);
}

}  // namespace
