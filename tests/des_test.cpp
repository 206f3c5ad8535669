#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "des/activities.hpp"
#include "des/scheduler.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dps::des {
namespace {

TEST(SchedulerTest, FiresInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAt(simEpoch() + milliseconds(3), [&] { order.push_back(3); });
  s.scheduleAt(simEpoch() + milliseconds(1), [&] { order.push_back(1); });
  s.scheduleAt(simEpoch() + milliseconds(2), [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), simEpoch() + milliseconds(3));
}

TEST(SchedulerTest, FifoAmongEqualTimestamps) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.scheduleAt(simEpoch() + milliseconds(5), [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, ScheduleAfterUsesNow) {
  Scheduler s;
  SimTime fired{};
  s.scheduleAfter(milliseconds(1), [&] {
    s.scheduleAfter(milliseconds(2), [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, simEpoch() + milliseconds(3));
}

TEST(SchedulerTest, PastSchedulingThrows) {
  Scheduler s;
  s.scheduleAfter(milliseconds(2), [] {});
  s.run();
  EXPECT_THROW(s.scheduleAt(simEpoch() + milliseconds(1), [] {}), Error);
  EXPECT_THROW(s.scheduleAfter(milliseconds(-1), [] {}), Error);
}

TEST(SchedulerTest, CancelPreventsFiring) {
  Scheduler s;
  bool fired = false;
  EventId id = s.scheduleAfter(milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(s.pending(id));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.pending(id));
  EXPECT_FALSE(s.cancel(id)); // double cancel reports false
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.firedCount(), 0u);
}

TEST(SchedulerTest, CancelFromInsideHandler) {
  Scheduler s;
  bool fired = false;
  EventId later = s.scheduleAfter(milliseconds(2), [&] { fired = true; });
  s.scheduleAfter(milliseconds(1), [&] { EXPECT_TRUE(s.cancel(later)); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, HandlerCanScheduleMore) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.scheduleAfter(milliseconds(1), chain);
  };
  s.scheduleAfter(milliseconds(1), chain);
  EXPECT_EQ(s.run(), 5u);
  EXPECT_EQ(s.now(), simEpoch() + milliseconds(5));
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i)
    s.scheduleAt(simEpoch() + milliseconds(i), [&] { ++fired; });
  EXPECT_EQ(s.runUntil(simEpoch() + milliseconds(4)), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(s.now(), simEpoch() + milliseconds(4));
  EXPECT_EQ(s.pendingCount(), 6u);
  s.run();
  EXPECT_EQ(fired, 10);
}

TEST(SchedulerTest, RunUntilAdvancesClockOnEmptyQueue) {
  Scheduler s;
  s.runUntil(simEpoch() + milliseconds(7));
  EXPECT_EQ(s.now(), simEpoch() + milliseconds(7));
}

TEST(SchedulerTest, StepFiresExactlyOne) {
  Scheduler s;
  int fired = 0;
  s.scheduleAfter(milliseconds(1), [&] { ++fired; });
  s.scheduleAfter(milliseconds(2), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(SchedulerTest, ResetClearsEverything) {
  Scheduler s;
  s.scheduleAfter(milliseconds(1), [] {});
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.now(), simEpoch());
  EXPECT_FALSE(s.step());
}

TEST(SchedulerTest, ZeroDelayEventsKeepFifoOrder) {
  Scheduler s;
  std::vector<int> order;
  s.scheduleAfter(SimDuration::zero(), [&] {
    order.push_back(1);
    s.scheduleAfter(SimDuration::zero(), [&] { order.push_back(2); });
  });
  s.scheduleAfter(SimDuration::zero(), [&] { order.push_back(3); });
  s.run();
  // The nested zero-delay event lands after already queued ones at t=0.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SchedulerTest, ManyEventsStressOrdering) {
  Scheduler s;
  SimTime last = simEpoch();
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    const auto at = simEpoch() + nanoseconds((i * 7919) % 100000);
    s.scheduleAt(at, [&, at] {
      if (s.now() < last) monotonic = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotonic);
}

TEST(SchedulerTest, RescheduleMovesEventEitherWay) {
  Scheduler s;
  std::vector<int> order;
  const EventId a = s.scheduleAt(simEpoch() + milliseconds(5), [&] { order.push_back(1); });
  const EventId b = s.scheduleAt(simEpoch() + milliseconds(1), [&] { order.push_back(2); });
  s.scheduleAt(simEpoch() + milliseconds(3), [&] { order.push_back(3); });
  EXPECT_TRUE(s.rescheduleAt(a, simEpoch() + milliseconds(2))); // earlier
  EXPECT_TRUE(s.rescheduleAt(b, simEpoch() + milliseconds(4))); // later
  EXPECT_EQ(s.pendingCount(), 3u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(s.now(), simEpoch() + milliseconds(4));
  EXPECT_EQ(s.stats().scheduled, 3u);
  EXPECT_EQ(s.stats().rescheduled, 2u);
  EXPECT_EQ(s.stats().cancelled, 0u);
  EXPECT_EQ(s.stats().fired, 3u);
}

TEST(SchedulerTest, RescheduleTakesAFreshTiePosition) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = simEpoch() + milliseconds(1);
  const EventId first = s.scheduleAt(t, [&] { order.push_back(1); });
  s.scheduleAt(t, [&] { order.push_back(2); });
  // Same instant, but rescheduled last: fires last, as cancel + schedule would.
  EXPECT_TRUE(s.rescheduleAt(first, t));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(SchedulerTest, RescheduleIntoThePastThrows) {
  Scheduler s;
  const EventId id = s.scheduleAfter(milliseconds(5), [] {});
  s.scheduleAfter(milliseconds(2), [] {});
  s.step();
  EXPECT_THROW(s.rescheduleAt(id, simEpoch() + milliseconds(1)), Error);
  EXPECT_TRUE(s.pending(id));
}

TEST(SchedulerTest, DefaultHandleNeverNamesALiveEvent) {
  Scheduler s;
  bool fired = false;
  s.scheduleAfter(milliseconds(1), [&] { fired = true; }); // occupies slot 0
  const EventId none;
  EXPECT_FALSE(s.pending(none));
  EXPECT_FALSE(s.cancel(none));
  EXPECT_FALSE(s.rescheduleAt(none, simEpoch() + milliseconds(9)));
  EXPECT_EQ(s.pendingCount(), 1u);
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), simEpoch() + milliseconds(1));
}

TEST(SchedulerTest, StaleHandlesAreDead) {
  Scheduler s;
  int fired = 0;
  const EventId firedId = s.scheduleAfter(milliseconds(1), [&] { ++fired; });
  s.run();
  EXPECT_FALSE(s.pending(firedId));
  EXPECT_FALSE(s.cancel(firedId));
  EXPECT_FALSE(s.rescheduleAt(firedId, s.now()));

  const EventId cancelled = s.scheduleAfter(milliseconds(1), [&] { ++fired; });
  EXPECT_TRUE(s.cancel(cancelled));
  EXPECT_FALSE(s.rescheduleAt(cancelled, s.now()));

  // The freed slot is reused; the old handles must not reach the new event.
  const EventId fresh = s.scheduleAfter(milliseconds(1), [&] { ++fired; });
  EXPECT_FALSE(s.pending(firedId));
  EXPECT_FALSE(s.pending(cancelled));
  EXPECT_FALSE(s.cancel(cancelled));
  EXPECT_FALSE(s.rescheduleAt(firedId, s.now()));
  EXPECT_TRUE(s.pending(fresh));
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, HandlesFromBeforeResetAreDead) {
  Scheduler s;
  bool fired = false;
  const EventId old = s.scheduleAfter(milliseconds(1), [] {});
  s.reset();
  EXPECT_FALSE(s.pending(old));
  const EventId fresh = s.scheduleAfter(milliseconds(2), [&] { fired = true; });
  EXPECT_FALSE(s.pending(old));
  EXPECT_FALSE(s.cancel(old));
  EXPECT_FALSE(s.rescheduleAt(old, simEpoch()));
  EXPECT_TRUE(s.pending(fresh));
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.stats().scheduled, 1u);
}

TEST(SchedulerTest, FiringEventCannotRescheduleItself) {
  Scheduler s;
  EventId self;
  bool moved = true;
  int fired = 0;
  self = s.scheduleAfter(milliseconds(1), [&] {
    ++fired;
    moved = s.rescheduleAt(self, s.now() + milliseconds(1));
    EXPECT_FALSE(s.pending(self));
    EXPECT_FALSE(s.cancel(self));
  });
  s.run();
  EXPECT_FALSE(moved);
  EXPECT_EQ(fired, 1);
}

// rescheduleAt(id, at) must order the queue exactly as cancel(id) followed
// by scheduleAt(at, same action) does: replay one random script of
// schedules, cancels, reschedules and steps both ways and compare the
// firing order, ties included.
TEST(SchedulerTest, RescheduleMatchesCancelPlusSchedule) {
  struct Op {
    int kind;       // 0 schedule, 1 cancel, 2 move, 3 step
    std::size_t k;  // which earlier event
    std::int64_t t; // offset from now, in coarse ticks (forces ties)
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Op> script;
    for (int i = 0; i < 3000; ++i) {
      const auto roll = rng.below(10);
      const int kind = roll < 4 ? 0 : roll < 5 ? 1 : roll < 8 ? 2 : 3;
      script.push_back({kind, static_cast<std::size_t>(rng()),
                        static_cast<std::int64_t>(rng.below(16))});
    }
    auto replay = [&script, seed](bool inPlace) {
      Scheduler s;
      std::vector<std::pair<int, std::int64_t>> fired;
      std::vector<EventId> ids;
      auto action = [&s, &fired](int tag) {
        return [&s, &fired, tag] { fired.emplace_back(tag, s.now().time_since_epoch().count()); };
      };
      for (const Op& op : script) {
        const SimTime at = s.now() + microseconds(op.t);
        if (op.kind == 0) {
          ids.push_back(s.scheduleAt(at, action(static_cast<int>(ids.size()))));
        } else if (op.kind == 3) {
          s.step();
        } else if (!ids.empty()) {
          const std::size_t k = op.k % ids.size();
          if (op.kind == 1) {
            s.cancel(ids[k]);
          } else if (inPlace) {
            s.rescheduleAt(ids[k], at);
          } else if (s.cancel(ids[k])) {
            ids[k] = s.scheduleAt(at, action(static_cast<int>(k)));
          }
        }
      }
      s.run();
      EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end(),
                                 [](const auto& a, const auto& b) { return a.second < b.second; }))
          << "seed " << seed << (inPlace ? " in place" : " cancel + schedule");
      fired.emplace_back(-1, static_cast<std::int64_t>(s.firedCount()));
      return fired;
    };
    EXPECT_EQ(replay(true), replay(false)) << "seed " << seed;
  }
}

// A model on an Activities set: its handler releases the completed activity
// and runs the callback, which logs (tag, completion time).
struct ActivityRig {
  Scheduler sched;
  Activities acts{sched, [this](Activities::Id id) { acts.release(id)(); }};
  std::vector<std::pair<int, SimTime>> done;

  Activities::Id add(double work, int tag) {
    return acts.add(work, [this, tag] { done.emplace_back(tag, sched.now()); });
  }
};

TEST(ActivitiesTest, RateChangeSettlesProgressMidFlight) {
  ActivityRig r;
  const auto id = r.add(0.010, 1); // 10 ms of work at rate 1 ...
  r.acts.setRate(id, 1.0);
  // ... for 4 ms leaves 6 ms, which takes 12 ms at rate 0.5.
  r.sched.scheduleAt(simEpoch() + milliseconds(4), [&] { r.acts.setRate(id, 0.5); });
  r.sched.run();
  ASSERT_EQ(r.done.size(), 1u);
  EXPECT_EQ(r.done[0].second, simEpoch() + milliseconds(16));
}

TEST(ActivitiesTest, ZeroWorkCompletesAtNow) {
  ActivityRig r;
  r.sched.scheduleAt(simEpoch() + milliseconds(3), [&] { r.acts.setRate(r.add(0.0, 1), 1.0); });
  r.sched.run();
  ASSERT_EQ(r.done.size(), 1u);
  EXPECT_EQ(r.done[0].second, simEpoch() + milliseconds(3));
}

TEST(ActivitiesTest, ReleasedSlotIsReusedAndItsCompletionNeverFires) {
  ActivityRig r;
  const auto first = r.add(0.010, 1);
  r.acts.setRate(first, 1.0);
  r.acts.release(first); // before its completion at 10 ms
  const auto second = r.add(0.020, 2);
  EXPECT_EQ(second, first);
  r.acts.setRate(second, 1.0);
  r.sched.run();
  ASSERT_EQ(r.done.size(), 1u);
  EXPECT_EQ(r.done[0], std::make_pair(2, simEpoch() + milliseconds(20)));
  EXPECT_EQ(r.sched.stats().cancelled, 1u);
  EXPECT_EQ(r.add(0.0, 3), first); // released again by the handler
}

TEST(ActivitiesTest, RescheduledCountsEachInPlaceMove) {
  ActivityRig r;
  const auto id = r.add(0.010, 1);
  r.acts.setRate(id, 1.0); // schedules
  r.acts.setRate(id, 2.0); // moves
  r.acts.setRate(id, 0.5); // moves
  EXPECT_EQ(r.sched.stats().scheduled, 1u);
  EXPECT_EQ(r.sched.stats().rescheduled, 2u);
  EXPECT_EQ(r.sched.pendingCount(), 1u);
  EXPECT_THROW(r.acts.setRate(id, 0.0), Error);
  r.sched.run();
  ASSERT_EQ(r.done.size(), 1u);
  EXPECT_EQ(r.done[0].second, simEpoch() + milliseconds(20));
}

} // namespace
} // namespace dps::des
