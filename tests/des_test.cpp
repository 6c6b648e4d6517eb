#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "des/stats.hpp"
#include "des/time.hpp"

namespace gtw::des {
namespace {

TEST(SimTimeTest, UnitConversionsRoundTrip) {
  EXPECT_EQ(SimTime::seconds(1.0).ps(), 1'000'000'000'000LL);
  EXPECT_EQ(SimTime::milliseconds(3).ps(), 3'000'000'000LL);
  EXPECT_EQ(SimTime::microseconds(7).ps(), 7'000'000LL);
  EXPECT_EQ(SimTime::nanoseconds(9).ps(), 9'000LL);
  EXPECT_DOUBLE_EQ(SimTime::seconds(2.5).sec(), 2.5);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::milliseconds(2);
  const SimTime b = SimTime::microseconds(500);
  EXPECT_EQ((a + b).us(), 2500.0);
  EXPECT_EQ((a - b).us(), 1500.0);
  EXPECT_EQ((b * 4).ms(), 2.0);
  EXPECT_LT(b, a);
}

TEST(SimTimeTest, TransmissionTimeExactForAtmCell) {
  // One ATM cell at 622.08 Mbit/s: 53*8/622.08e6 s = 681.58.. ns.
  const SimTime t = transmission_time(53, 622.08e6);
  EXPECT_NEAR(t.ns(), 681.58, 0.01);
}

TEST(SimTimeTest, TransmissionTimeRoundsUp) {
  // Never runs ahead of the wire: ceil to next picosecond.
  const SimTime t = transmission_time(1, 8e12);  // exactly 1 ps
  EXPECT_EQ(t.ps(), 1);
  const SimTime t2 = transmission_time(1, 9e12);  // 0.888.. ps -> 1
  EXPECT_EQ(t2.ps(), 1);
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::milliseconds(3), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::milliseconds(1), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::milliseconds(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::milliseconds(3));
}

TEST(SchedulerTest, FifoAtEqualTimestamps) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sched.schedule_at(SimTime::milliseconds(5), [&order, i] { order.push_back(i); });
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerTest, NestedScheduling) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_after(SimTime::seconds(1.0), [&] {
    ++fired;
    sched.schedule_after(SimTime::seconds(1.0), [&] { ++fired; });
  });
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), SimTime::seconds(2.0));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle h = sched.schedule_after(SimTime::seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sched.empty());
}

TEST(SchedulerTest, CancelAfterFireIsNoop) {
  Scheduler sched;
  EventHandle h = sched.schedule_after(SimTime::seconds(1.0), [] {});
  sched.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(SchedulerTest, CancellationChurnIsSweptFromTheHeap) {
  // A retransmit-timer workload: schedule far-future events and cancel
  // almost all of them.  Cancelled entries are removed lazily, but once
  // they outnumber the live ones the heap is swept, so churn cannot
  // accumulate garbage proportional to everything ever scheduled.
  Scheduler sched;
  std::vector<EventHandle> handles;
  const int kRounds = 50, kPerRound = 40;
  int fired = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kPerRound; ++i) {
      handles.push_back(sched.schedule_at(
          SimTime::seconds(1000.0 + r * kPerRound + i), [&] { ++fired; }));
    }
    // Cancel all but the last timer of the round (it "expires for real").
    for (int i = 0; i < kPerRound - 1; ++i)
      handles[static_cast<std::size_t>(r * kPerRound + i)].cancel();
    // Sweep invariant: cancelled entries never outnumber the live ones.
    EXPECT_LE(sched.cancelled_entries(),
              sched.queued_entries() - sched.cancelled_entries())
        << "round " << r;
  }
  // 2000 events were scheduled but only 50 are live; the heap must be
  // within the sweep bound, not holding ~2000 tombstones.
  EXPECT_LE(sched.queued_entries(), 2u * kRounds);
  sched.run();
  EXPECT_EQ(fired, kRounds);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.queued_entries(), 0u);
  EXPECT_EQ(sched.cancelled_entries(), 0u);
  // Leak census (GTW-San's drain invariant asserted directly): after 2000
  // schedules and ~1950 cancels, natural drain returned every pool slot.
  EXPECT_EQ(sched.pool_in_use(), sched.live_events() + sched.cancelled_entries());
  EXPECT_EQ(sched.pool_in_use(), 0u);
}

TEST(SchedulerTest, CancelledOrderingUnaffectedForSurvivors) {
  // Interleave cancels with live events at shared timestamps: survivors must
  // still fire in (time, insertion) order after sweeps rebuild the heap.
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 30; ++i) {
    const SimTime t = SimTime::milliseconds(100 + (i % 5));
    if (i % 3 == 0) {
      const int tag = i;
      sched.schedule_at(t, [&order, tag] { order.push_back(tag); });
    } else {
      doomed.push_back(sched.schedule_at(t, [&order] {
        order.push_back(-1);
      }));
    }
  }
  for (auto& h : doomed) h.cancel();
  sched.run();
  // Survivors are i = 0, 3, 6, ..., 27 sorted by (time = 100 + i%5, seq).
  std::vector<int> expect;
  for (int ms = 0; ms < 5; ++ms)
    for (int i = 0; i < 30; i += 3)
      if (i % 5 == ms) expect.push_back(i);
  EXPECT_EQ(order, expect);
}

TEST(SchedulerTest, DoubleCancelIsInert) {
  Scheduler sched;
  bool fired = false;
  EventHandle h = sched.schedule_after(SimTime::seconds(1.0), [&] { fired = true; });
  h.cancel();
  h.cancel();  // second cancel must be a no-op, not a double-release
  EXPECT_FALSE(h.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, StaleHandleCannotCancelRecycledSlot) {
  // Regression: cancel() used to null only the scheduler pointer and leave
  // seq_/slot_ stale.  A *copy* of the handle taken before the cancel still
  // holds the old (seq, slot) pair; once the pool slot is recycled for a new
  // event, cancelling through the copy must not kill the new event.
  Scheduler sched;
  bool first = false, second = false;
  EventHandle h = sched.schedule_after(SimTime::seconds(1.0), [&] { first = true; });
  EventHandle stale = h;  // copy before cancel
  h.cancel();
  // The freed slot is the first one the pool hands back out.
  EventHandle fresh =
      sched.schedule_after(SimTime::seconds(2.0), [&] { second = true; });
  stale.cancel();  // stale seq must miss: the slot now belongs to `fresh`
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  sched.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(SchedulerTest, UseAfterFireHandleCannotCancelRecycledSlot) {
  // Same aliasing hazard via the fire path: once an event has executed, its
  // slot is recycled, and the old handle must not be able to cancel the
  // event that now occupies it.
  Scheduler sched;
  EventHandle h = sched.schedule_after(SimTime::seconds(1.0), [] {});
  sched.run();
  bool fired = false;
  EventHandle fresh =
      sched.schedule_after(SimTime::seconds(1.0), [&] { fired = true; });
  h.cancel();  // fired long ago; slot now belongs to `fresh`
  EXPECT_TRUE(fresh.pending());
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, EarlierInsertAfterHorizonJumpStaysOrdered) {
  // Peeking past a far-future event (a horizon-bounded run that executes
  // nothing) must not advance the queue's base to that event.  A later
  // insert that lands before it — legal, since it is still >= now() — must
  // come out strictly sorted.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::seconds(1000.0), [&] { order.push_back(3); });
  sched.run(SimTime::seconds(1.0));  // executes nothing; peeks at t=1000s
  EXPECT_EQ(order.size(), 0u);
  sched.schedule_at(SimTime::seconds(2.0), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::seconds(500.0), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, SparseFarFutureDayJumpsExecuteInOrder) {
  // Events whose times differ in widely separated bits (microseconds vs
  // an hour) must hop empty buckets without executing out of order.
  Scheduler sched;
  std::vector<std::int64_t> fired_ps;
  const double times[] = {1e-6, 3600.0, 0.25, 7.0, 1e-3, 400.0, 2e-6};
  for (double t : times)
    sched.schedule_at(SimTime::seconds(t),
                      [&] { fired_ps.push_back(sched.now().ps()); });
  sched.run();
  ASSERT_EQ(fired_ps.size(), 7u);
  for (std::size_t i = 1; i < fired_ps.size(); ++i)
    EXPECT_LT(fired_ps[i - 1], fired_ps[i]);
}

TEST(SchedulerTest, StreamHashIdenticalAcrossIdenticalRuns) {
  auto hash_of = [] {
    Scheduler sched;
    Rng rng(99);
    for (int i = 0; i < 500; ++i)
      sched.schedule_after(SimTime::seconds(rng.uniform()), [] {});
    sched.run();
    return sched.stream_hash();
  };
  const std::uint64_t a = hash_of(), b = hash_of();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 14695981039346656037ULL);  // events actually mixed in
}

TEST(SchedulerTest, PoolRecyclesSlotsAndTracksHighWater) {
  Scheduler sched;
  const int kEvents = 300;
  for (int i = 0; i < kEvents; ++i)
    sched.schedule_at(SimTime::microseconds(i + 1), [] {});
  EXPECT_EQ(sched.pool_in_use(), static_cast<std::size_t>(kEvents));
  EXPECT_GE(sched.pool_high_water(), static_cast<std::size_t>(kEvents));
  const std::size_t slots_before = sched.pool_slots();
  sched.run();
  EXPECT_EQ(sched.pool_in_use(), 0u);
  // A second wave of the same size reuses freed slots: no pool growth.
  for (int i = 0; i < kEvents; ++i)
    sched.schedule_after(SimTime::microseconds(i + 1), [] {});
  EXPECT_EQ(sched.pool_slots(), slots_before);
  sched.run();
  EXPECT_EQ(sched.pool_in_use(), 0u);
}

TEST(SchedulerTest, QueueGaugesTrackRedistribution) {
  Scheduler sched;
  EXPECT_EQ(sched.redistributions(), 0u);
  EXPECT_EQ(sched.ready_high_water(), 0u);
  EXPECT_EQ(sched.overflow_high_water(), 0u);
  // 5000 events in [2^20, 2^21) ps share one bucket; nothing is sorted
  // until the first fire scans it and spreads all 5000 at once.
  std::vector<EventHandle> handles;
  for (int i = 0; i < 5000; ++i)
    handles.push_back(sched.schedule_at(
        SimTime::picoseconds((std::int64_t{1} << 20) + i * 7), [] {}));
  EXPECT_EQ(sched.redistributions(), 0u);
  ASSERT_TRUE(sched.step());
  EXPECT_EQ(sched.redistributions(), 1u);
  EXPECT_EQ(sched.overflow_high_water(), 5000u);
  EXPECT_EQ(sched.ready_high_water(), 1u);
  // Eight events due at one instant form one ready run.
  for (int i = 0; i < 8; ++i)
    handles.push_back(sched.schedule_at(SimTime::seconds(1.0), [] {}));
  sched.run(SimTime::milliseconds(1));
  ASSERT_TRUE(sched.step());
  EXPECT_EQ(sched.ready_high_water(), 8u);
  EXPECT_GT(sched.redistributions(), 1u);
  // Mass cancel sweeps the tombstones; the gauges keep their peaks.
  for (auto& h : handles) h.cancel();
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.queued_entries(), 0u);
  EXPECT_EQ(sched.pool_in_use(), 0u);
  EXPECT_EQ(sched.overflow_high_water(), 5000u);
}

TEST(SchedulerTest, HorizonStopsRun) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(SimTime::seconds(1.0), [&] { ++fired; });
  sched.schedule_at(SimTime::seconds(3.0), [&] { ++fired; });
  sched.run(SimTime::seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), SimTime::seconds(2.0));
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scheduler sched;
    Rng rng(42);
    std::vector<std::int64_t> times;
    for (int i = 0; i < 100; ++i) {
      sched.schedule_after(SimTime::seconds(rng.uniform()), [&times, &sched] {
        times.push_back(sched.now().ps());
      });
    }
    sched.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng a(7);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntUnbiasedCoarse) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.exponential(2.5));
  EXPECT_NEAR(st.mean(), 2.5, 0.05);
}

TEST(StatsTest, RunningStatsBasics) {
  RunningStats st;
  for (double x : {1.0, 2.0, 3.0, 4.0}) st.add(x);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
  EXPECT_NEAR(st.variance(), 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, TimeWeightedAverage) {
  TimeWeighted tw;
  tw.update(SimTime::seconds(0.0), 10.0);
  tw.update(SimTime::seconds(1.0), 20.0);
  // 1 s at 10, 1 s at 20 -> average 15 over [0, 2].
  EXPECT_DOUBLE_EQ(tw.average(SimTime::seconds(2.0)), 15.0);
  EXPECT_DOUBLE_EQ(tw.current(), 20.0);
}

}  // namespace
}  // namespace gtw::des
