// Unit tests for the discrete-event loop: ordering, cancellation, budget.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_loop.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

TEST(EventLoopTest, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(0.3, [&]() { order.push_back(3); });
  loop.Schedule(0.1, [&]() { order.push_back(1); });
  loop.Schedule(0.2, [&]() { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.now(), 0.3);
}

TEST(EventLoopTest, SameTimeFiresInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(1.0, [&, i]() { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, EventsCanScheduleEvents) {
  EventLoop loop;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) loop.Schedule(0.1, chain);
  };
  loop.Schedule(0.1, chain);
  loop.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_NEAR(loop.now(), 0.5, 1e-12);
}

TEST(EventLoopTest, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  const EventId id = loop.Schedule(0.1, [&]() { fired = true; });
  loop.Cancel(id);
  loop.Run();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, CancelUnknownIsNoop) {
  EventLoop loop;
  loop.Cancel(9999);
  EXPECT_EQ(loop.Run(), 0u);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<double> times;
  for (int i = 1; i <= 10; ++i) {
    loop.Schedule(i * 0.1, [&, i]() { times.push_back(i * 0.1); });
  }
  loop.RunUntil(0.55);
  EXPECT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(loop.now(), 0.55);
  loop.Run();
  EXPECT_EQ(times.size(), 10u);
}

TEST(EventLoopTest, RunUntilAdvancesClockWhenIdle) {
  EventLoop loop;
  loop.RunUntil(2.0);
  EXPECT_DOUBLE_EQ(loop.now(), 2.0);
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.Schedule(1.0, [&]() {
    bool fired = false;
    loop.Schedule(-5.0, [&]() { fired = true; });
    (void)fired;
  });
  loop.Run();
  EXPECT_DOUBLE_EQ(loop.now(), 1.0);  // the nested event fired at t=1.0
}

TEST(EventLoopTest, EventBudgetStopsRunawayLoops) {
  EventLoop loop;
  loop.set_event_budget(100);
  std::function<void()> forever = [&]() { loop.Schedule(0.01, forever); };
  loop.Schedule(0.01, forever);
  loop.Run();
  EXPECT_TRUE(loop.budget_exhausted());
}

TEST(EventLoopTest, StepFiresExactlyOne) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(0.1, [&]() { ++fired; });
  loop.Schedule(0.2, [&]() { ++fired; });
  EXPECT_TRUE(loop.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.Step());
  EXPECT_FALSE(loop.Step());
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, PendingCountsUncancelledEvents) {
  EventLoop loop;
  const EventId a = loop.Schedule(0.1, []() {});
  loop.Schedule(0.2, []() {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

// --- Cancel / tombstone semantics ------------------------------------------

TEST(EventLoopCancelTest, CancelThenRunUntilSkipsTombstone) {
  EventLoop loop;
  std::vector<int> order;
  const EventId a = loop.Schedule(0.1, [&]() { order.push_back(1); });
  loop.Schedule(0.2, [&]() { order.push_back(2); });
  loop.Cancel(a);
  // The tombstone sits at the head of the queue; RunUntil must drain it
  // without firing and still run the live event behind it.
  EXPECT_EQ(loop.RunUntil(0.5), 1u);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(loop.now(), 0.5);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopCancelTest, CancelAfterFireIsNoop) {
  EventLoop loop;
  int fired = 0;
  const EventId a = loop.Schedule(0.1, [&]() { ++fired; });
  loop.Schedule(0.2, [&]() { ++fired; });
  EXPECT_TRUE(loop.Step());  // fires `a`
  EXPECT_EQ(fired, 1);
  loop.Cancel(a);  // id already consumed: must not tombstone anything
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopCancelTest, DoubleCancelCountsOnce) {
  EventLoop loop;
  const EventId a = loop.Schedule(0.1, []() {});
  loop.Schedule(0.2, []() {});
  loop.Cancel(a);
  loop.Cancel(a);  // second cancel must not double-tombstone
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
  EXPECT_EQ(loop.Run(), 1u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopCancelTest, EmptyWithOnlyTombstonesInQueue) {
  EventLoop loop;
  const EventId a = loop.Schedule(0.1, []() {});
  const EventId b = loop.Schedule(0.2, []() {});
  loop.Cancel(a);
  loop.Cancel(b);
  // Queue physically holds two entries, both tombstoned.
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.Run(), 0u);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopCancelTest, CancelledSelfRescheduleStopsTimerChain) {
  // The periodic-timer idiom: a callback reschedules itself; cancelling
  // the live id stops the chain.
  EventLoop loop;
  int ticks = 0;
  EventId id = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    id = loop.Schedule(0.1, tick);
  };
  id = loop.Schedule(0.1, tick);
  loop.RunUntil(0.35);
  EXPECT_EQ(ticks, 3);
  loop.Cancel(id);
  loop.RunUntil(1.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(loop.empty());
}

// --- RunUntil vs. the event budget -----------------------------------------

TEST(EventLoopBudgetTest, RunUntilDoesNotAdvancePastUndeliveredEvents) {
  EventLoop loop;
  std::vector<double> fired_at;
  for (int i = 1; i <= 10; ++i) {
    loop.Schedule(i * 0.1, [&, i]() { fired_at.push_back(i * 0.1); });
  }
  loop.set_event_budget(4);
  EXPECT_EQ(loop.RunUntil(2.0), 4u);
  ASSERT_EQ(fired_at.size(), 4u);
  // Six events (t=0.5..1.0) are still due before the deadline; the clock
  // must stay at the last fired event, not jump to 2.0 and leave them
  // scheduled "in the past".
  EXPECT_DOUBLE_EQ(loop.now(), 0.4);
  EXPECT_EQ(loop.pending(), 6u);
}

TEST(EventLoopBudgetTest, RunUntilStillReachesDeadlineWhenAllDueFired) {
  EventLoop loop;
  loop.Schedule(0.1, []() {});
  loop.set_event_budget(4);
  EXPECT_EQ(loop.RunUntil(2.0), 1u);
  // Budget not exhausted and nothing left before the deadline: the idle
  // clock advance is still correct.
  EXPECT_DOUBLE_EQ(loop.now(), 2.0);
}

TEST(EventLoopBudgetTest, ExhaustedBudgetWithDrainedQueueStillReachesDeadline) {
  EventLoop loop;
  for (int i = 1; i <= 3; ++i) loop.Schedule(i * 0.1, []() {});
  loop.set_event_budget(3);
  EXPECT_EQ(loop.RunUntil(1.0), 3u);
  EXPECT_TRUE(loop.budget_exhausted());
  // Every scheduled event was delivered, so nothing can land in the past:
  // the idle clock advance to the deadline is safe even on a spent budget.
  EXPECT_DOUBLE_EQ(loop.now(), 1.0);
}


TEST(EventLoopTest, NaNTimeIsRejected) {
  EventLoop loop;
  // A NaN fails every comparison, so a plain `time < now` clamp would let
  // it into the heap and silently break its order.
  EXPECT_DEATH(loop.ScheduleAt(std::nan(""), []() {}), "NaN");
}

// ---------------------------------------------------------------------------
// Property test: random schedule / cancel / fire sequences against a
// reference ordered by (time, insertion seq). Times come from a coarse grid
// so same-time ties are common; the mix includes zero delays, -0.0,
// cancelling the earliest pending entry (the one the loop may hold outside
// its heap) and cancel bursts large enough to trigger heap compaction.
// ---------------------------------------------------------------------------

class ReferenceQueue {
 public:
  using Key = std::pair<double, uint64_t>;  // (time, insertion seq)

  ReferenceQueue(EventLoop* loop, std::vector<uint64_t>* fired)
      : loop_(loop), fired_(fired) {}

  void ScheduleAt(double time) {
    const uint64_t seq = next_seq_++;
    const double at = time <= loop_->now() ? loop_->now() : time;
    const EventId id =
        loop_->ScheduleAt(time, [fired = fired_, seq]() { fired->push_back(seq); });
    pending_.emplace(Key{at, seq}, id);
  }

  void Cancel(std::map<Key, EventId>::iterator it) {
    loop_->Cancel(it->second);
    pending_.erase(it);
  }

  // Fires one event and checks it was the reference's earliest.
  void Step() {
    ASSERT_FALSE(pending_.empty());
    const Key expected = pending_.begin()->first;
    ASSERT_TRUE(loop_->Step());
    ASSERT_FALSE(fired_->empty());
    EXPECT_EQ(fired_->back(), expected.second);
    EXPECT_EQ(loop_->now(), expected.first);
    pending_.erase(pending_.begin());
  }

  void CheckAgrees() {
    ASSERT_EQ(loop_->pending(), pending_.size());
    ASSERT_EQ(loop_->empty(), pending_.empty());
    const double next = pending_.empty()
                            ? std::numeric_limits<double>::infinity()
                            : pending_.begin()->first.first;
    ASSERT_EQ(loop_->NextEventTime(), next);
  }

  std::map<Key, EventId>& pending() { return pending_; }

 private:
  EventLoop* loop_;
  std::vector<uint64_t>* fired_;
  std::map<Key, EventId> pending_;
  uint64_t next_seq_ = 0;
};

TEST(EventLoopPropertyTest, RandomScheduleCancelFireMatchesReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    EventLoop loop;
    std::vector<uint64_t> fired;
    ReferenceQueue ref(&loop, &fired);
    Rng rng(seed);
    for (int op = 0; op < 3000; ++op) {
      const uint64_t pick = rng.NextUint64(100);
      if (pick < 40) {
        // Grid times: ties with pending and with already-fired times.
        ref.ScheduleAt(loop.now() +
                       0.125 * static_cast<double>(rng.NextUint64(8)));
      } else if (pick < 45) {
        ref.ScheduleAt(loop.now());  // zero delay
      } else if (pick < 48) {
        ref.ScheduleAt(-0.0);  // clamps to now; ordered by seq there
      } else if (pick < 50) {
        ref.ScheduleAt(loop.now() - 1.0);  // in the past: clamps to now
      } else if (pick < 60 && !ref.pending().empty()) {
        ref.Cancel(ref.pending().begin());  // the earliest pending entry
      } else if (pick < 70 && !ref.pending().empty()) {
        auto it = ref.pending().begin();
        std::advance(it, rng.NextUint64(ref.pending().size()));
        ref.Cancel(it);
      } else if (pick < 71) {
        // Far-future burst, mostly cancelled: tombstones dominate the
        // heap and compaction runs.
        for (int i = 0; i < 200; ++i) {
          ref.ScheduleAt(loop.now() + 100.0 +
                         static_cast<double>(rng.NextUint64(4)));
        }
        for (auto it = ref.pending().begin(); it != ref.pending().end();) {
          if (it->first.first >= loop.now() + 100.0 &&
              rng.NextUint64(10) != 0) {
            auto next = std::next(it);
            ref.Cancel(it);
            it = next;
          } else {
            ++it;
          }
        }
      } else if (!ref.pending().empty()) {
        ref.Step();
      }
      ref.CheckAgrees();
      if (HasFatalFailure()) return;
    }
    while (!ref.pending().empty()) {
      ref.Step();
      if (HasFatalFailure()) return;
    }
    ref.CheckAgrees();
    EXPECT_FALSE(loop.Step());
  }
}

// ---------------------------------------------------------------------------
// Slot-slab behavior: eager reclamation, free-list reuse, heap compaction.
// ---------------------------------------------------------------------------

TEST(EventLoopSlabTest, MassCancelReclaimsSlotsAndCompactsHeap) {
  EventLoop loop;
  constexpr size_t kN = 1000000;
  std::vector<EventId> ids;
  ids.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    ids.push_back(loop.Schedule(1e9 + static_cast<double>(i), []() {}));
  }
  EXPECT_EQ(loop.pending(), kN);
  const size_t cap = loop.slot_capacity();
  EXPECT_EQ(cap, kN);

  for (EventId id : ids) loop.Cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
  // Far-future tombstones must not sit in the heap until their fire time:
  // compaction sweeps them once they dominate.
  EXPECT_LT(loop.heap_size(), 128u);

  // Free-list reuse: a second full wave fits in the reclaimed slots
  // without growing the slab.
  for (size_t i = 0; i < kN; ++i) loop.Schedule(1.0, []() {});
  EXPECT_EQ(loop.slot_capacity(), cap);
  EXPECT_EQ(loop.Run(), kN);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopSlabTest, RearmChurnIsBoundedToTwoSlots) {
  // The retransmit-timer pattern: schedule the replacement, cancel the old
  // one. Eager reclamation keeps the slab at two slots no matter how long
  // the churn runs.
  EventLoop loop;
  EventId prev = 0;
  for (int i = 0; i < 10000; ++i) {
    const EventId id =
        loop.Schedule(1e6 + static_cast<double>(i), []() {});
    if (prev != 0) loop.Cancel(prev);
    prev = id;
  }
  loop.Cancel(prev);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_LE(loop.slot_capacity(), 2u);
}

TEST(EventLoopSlabTest, StaleIdCannotCancelRecycledSlot) {
  EventLoop loop;
  bool fired = false;
  const EventId a = loop.Schedule(0.1, []() {});
  loop.Cancel(a);
  // The next schedule reuses a's slot; the stale id must not reach it.
  const EventId b = loop.Schedule(0.2, [&]() { fired = true; });
  EXPECT_NE(a, b);
  loop.Cancel(a);
  loop.Run();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace tornado
