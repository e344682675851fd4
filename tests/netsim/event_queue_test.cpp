#include "netsim/event_queue.h"

#include <gtest/gtest.h>

namespace eden::netsim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(30, [&] { order.push_back(3); });
  sched.at(10, [&] { order.push_back(1); });
  sched.at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
}

TEST(Scheduler, SimultaneousEventsFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.at(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, AfterSchedulesRelativeToNow) {
  Scheduler sched;
  SimTime fired_at = -1;
  sched.at(50, [&] {
    sched.after(25, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, 75);
}

TEST(Scheduler, PastEventsClampToNow) {
  Scheduler sched;
  SimTime fired_at = -1;
  sched.at(100, [&] {
    sched.at(10, [&] { fired_at = sched.now(); });  // in the past
  });
  sched.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.at(10, [&] { fired = true; });
  sched.cancel(id);
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler sched;
  int fires = 0;
  const EventId id = sched.at(10, [&] { ++fires; });
  sched.run();
  sched.cancel(id);  // already fired: no-op
  sched.cancel(id);
  sched.cancel(kInvalidEvent);
  EXPECT_EQ(fires, 1);
}

TEST(Scheduler, StaleIdAfterSlotReuseIsNoOp) {
  // Ids are (generation, slot) pairs and a cancelled event's slot is
  // recycled: the stale id of A must not cancel B, which now holds it.
  Scheduler sched;
  bool a_fired = false;
  bool b_fired = false;
  const EventId a = sched.at(10, [&] { a_fired = true; });
  sched.cancel(a);
  const EventId b = sched.at(10, [&] { b_fired = true; });
  EXPECT_EQ(a & 0xffffffffu, b & 0xffffffffu) << "B did not reuse A's slot";
  EXPECT_NE(a, b);
  sched.cancel(a);
  EXPECT_FALSE(sched.empty());
  sched.run();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(10, [&] { order.push_back(1); });
  sched.at(20, [&] { order.push_back(2); });
  sched.at(30, [&] { order.push_back(3); });
  EXPECT_EQ(sched.run_until(20), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 20);
  sched.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler sched;
  sched.run_until(500);
  EXPECT_EQ(sched.now(), 500);
}

TEST(Scheduler, RunUntilSkipsCancelledHeadWithoutOvershooting) {
  Scheduler sched;
  bool late_fired = false;
  const EventId head = sched.at(10, [] {});
  sched.at(100, [&] { late_fired = true; });
  sched.cancel(head);
  sched.run_until(50);
  // The cancelled event at t=10 must not cause the t=100 event to run.
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sched.now(), 50);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sched.after(1, chain);
  };
  sched.after(1, chain);
  sched.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), 10);
}

TEST(TransmitTime, ComputesSerializationDelay) {
  // 1500 bytes at 10 Gbps = 1200 ns exactly.
  EXPECT_EQ(transmit_time(1500, 10ULL * 1000 * 1000 * 1000), 1200);
  // 1 byte on a fast link still takes nonzero time.
  EXPECT_GT(transmit_time(1, 100ULL * 1000 * 1000 * 1000), 0);
  EXPECT_EQ(transmit_time(100, 0), 0);  // infinite-rate convention
}

}  // namespace
}  // namespace eden::netsim
