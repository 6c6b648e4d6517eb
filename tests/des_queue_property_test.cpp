// Property test: the radix-heap scheduler is observationally identical to a
// reference scheduler (the seed engine's (time, seq) ordering rule,
// re-implemented here in its simplest possible form).
//
// A randomized workload of schedules, cancels, nested reschedules, timestamp
// collisions, and horizon-bounded runs is driven through both engines with
// the same RNG stream.  The full execution transcript — (timestamp, tag) per
// fired event — and the FNV-1a stream hash must match exactly.  This pins the
// heap's mechanics (bucket redistribution, the seq-ordered ready run,
// horizon peeks that must not move the base, tombstone sweeps) to the
// simple model: any internal reorganization that leaks into execution
// order is caught here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "des/time.hpp"

namespace gtw::des {
namespace {

// FNV-1a over the 8 bytes of `v`, little-endian — must match the engine's.
void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

// Reference model: a plain sorted-on-demand event list with (time, seq)
// ordering and lazy cancellation.  Deliberately naive — correctness oracle,
// not a performance baseline.
class ReferenceScheduler {
 public:
  using Handle = std::uint64_t;  // seq; 0 = inert

  SimTime now() const { return now_; }
  std::uint64_t stream_hash() const { return hash_; }
  bool empty() const { return live_ == 0; }

  Handle schedule_at(SimTime when, std::function<void()> fn) {
    const std::uint64_t seq = next_seq_++;
    events_.push_back(Ev{when, seq, std::move(fn), false});
    ++live_;
    return seq;
  }
  Handle schedule_after(SimTime delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  void cancel(Handle h) {
    if (h == 0) return;
    for (Ev& e : events_) {
      if (e.seq == h && !e.cancelled) {
        e.cancelled = true;
        --live_;
        return;
      }
    }
  }

  bool step(SimTime horizon) {
    auto best = events_.end();
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->cancelled) continue;
      if (best == events_.end() || it->when < best->when ||
          (it->when == best->when && it->seq < best->seq))
        best = it;
    }
    if (best == events_.end() || best->when > horizon) return false;
    now_ = best->when;
    fnv1a_mix(hash_, static_cast<std::uint64_t>(best->when.ps()));
    fnv1a_mix(hash_, best->seq);
    std::function<void()> fn = std::move(best->fn);
    events_.erase(best);
    --live_;
    fn();
    return true;
  }

  std::uint64_t run(SimTime horizon = SimTime::max()) {
    std::uint64_t n = 0;
    while (step(horizon)) ++n;
    // Mirror the engine: a bounded run leaves the clock at the horizon so
    // relative scheduling after the run starts from the same base time.
    if (live_ != 0 && horizon != SimTime::max()) now_ = horizon;
    return n;
  }

 private:
  struct Ev {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> fn;
    bool cancelled;
  };
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
  std::size_t live_ = 0;
  std::vector<Ev> events_;
};

using Transcript = std::vector<std::pair<std::int64_t, int>>;

// Drive one engine through the randomized workload.  Every RNG draw happens
// in the same order for both engines, so the schedules are bit-identical.
template <typename Sched, typename Handle>
Transcript drive(Sched& sched, std::uint64_t seed, std::uint64_t* hash_out) {
  Rng rng(seed);
  Transcript out;
  std::vector<Handle> cancellable;
  int next_tag = 0;

  // Self-rescheduling actor: models protocol timers that re-arm from within
  // their own callback, including same-timestamp bursts.
  std::function<void(int, int)> actor = [&](int tag, int depth) {
    out.emplace_back(sched.now().ps(), tag);
    if (depth <= 0) return;
    const std::uint64_t jitter = rng.next_u64() % 3;  // 0 => same timestamp
    sched.schedule_after(
        SimTime::picoseconds(static_cast<std::int64_t>(jitter * 40'000)),
        [&actor, tag, depth] { actor(tag, depth - 1); });
  };

  for (int round = 0; round < 40; ++round) {
    // A burst of fresh events: near, far, and colliding timestamps.  The
    // bands differ in their high bits, so events spread over many buckets.
    for (int i = 0; i < 25; ++i) {
      const std::uint64_t r = rng.next_u64();
      std::int64_t delay_ps = 0;
      switch (r % 4) {
        case 0: delay_ps = static_cast<std::int64_t>(r % 200'000); break;
        case 1: delay_ps = static_cast<std::int64_t>(r % 50'000'000); break;
        case 2: delay_ps = static_cast<std::int64_t>(r % 80'000'000'000); break;
        default: delay_ps = 777'000; break;  // deliberate collisions
      }
      const int tag = next_tag++;
      if (r % 5 == 0) {
        const int depth = static_cast<int>(r % 3);
        cancellable.push_back(sched.schedule_after(
            SimTime::picoseconds(delay_ps),
            [&actor, tag, depth] { actor(tag, depth); }));
      } else {
        cancellable.push_back(sched.schedule_after(
            SimTime::picoseconds(delay_ps), [&out, &sched, tag] {
              out.emplace_back(sched.now().ps(), tag);
            }));
      }
    }
    // Churn: cancel a deterministic random subset (some already fired —
    // must be inert), including immediate double-cancels.
    for (int i = 0; i < 8 && !cancellable.empty(); ++i) {
      const std::size_t pick = rng.next_u64() % cancellable.size();
      sched.cancel(cancellable[pick]);
      if (rng.next_u64() % 2 == 0) sched.cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() +
                        static_cast<std::ptrdiff_t>(pick));
    }
    // Drain a horizon-bounded slice, so later rounds insert between now()
    // and events the bounded run peeked at but did not fire.
    const std::int64_t horizon_ps =
        sched.now().ps() + static_cast<std::int64_t>(rng.next_u64() % 30'000'000);
    sched.run(SimTime::picoseconds(horizon_ps));
  }
  sched.run();
  *hash_out = sched.stream_hash();
  return out;
}

TEST(QueuePropertyTest, MatchesReferenceHeapUnderRandomChurn) {
  for (std::uint64_t seed : {1ULL, 0xdecafULL, 0x9e3779b97f4a7c15ULL}) {
    // des::Scheduler::cancel is private (handles cancel themselves), so wrap
    // both engines behind the same micro-interface.
    struct QueueWrap {
      Scheduler s;
      SimTime now() const { return s.now(); }
      std::uint64_t stream_hash() const { return s.stream_hash(); }
      EventHandle schedule_after(SimTime d, Scheduler::Action a) {
        return s.schedule_after(d, std::move(a));
      }
      void cancel(EventHandle& h) { h.cancel(); }
      std::uint64_t run(SimTime h = SimTime::max()) { return s.run(h); }
    };
    struct RefWrap {
      ReferenceScheduler s;
      SimTime now() const { return s.now(); }
      std::uint64_t stream_hash() const { return s.stream_hash(); }
      ReferenceScheduler::Handle schedule_after(SimTime d,
                                                std::function<void()> f) {
        return s.schedule_after(d, std::move(f));
      }
      void cancel(ReferenceScheduler::Handle h) { s.cancel(h); }
      std::uint64_t run(SimTime h = SimTime::max()) { return s.run(h); }
    };

    QueueWrap q;
    RefWrap ref;
    std::uint64_t q_hash = 0, ref_hash = 0;
    const Transcript q_t = drive<QueueWrap, EventHandle>(q, seed, &q_hash);
    const Transcript ref_t =
        drive<RefWrap, ReferenceScheduler::Handle>(ref, seed, &ref_hash);

    ASSERT_EQ(q_t.size(), ref_t.size()) << "seed " << seed;
    for (std::size_t i = 0; i < q_t.size(); ++i) {
      ASSERT_EQ(q_t[i], ref_t[i])
          << "seed " << seed << " diverges at event " << i;
    }
    EXPECT_EQ(q_hash, ref_hash) << "seed " << seed;
  }
}

// The transcript must also be insensitive to how the population is spread:
// front-load a large population so every fire redistributes deep buckets.
TEST(QueuePropertyTest, RedistributionDuringRunPreservesOrder) {
  Scheduler sched;
  ReferenceScheduler ref;
  Rng rng(0x5ca1ab1eULL);
  std::vector<std::int64_t> delays;
  for (int i = 0; i < 3000; ++i)
    delays.push_back(static_cast<std::int64_t>(rng.next_u64() % 2'000'000));

  Transcript q_t, ref_t;
  for (int i = 0; i < 3000; ++i) {
    sched.schedule_after(SimTime::picoseconds(delays[static_cast<std::size_t>(i)]),
                         [&q_t, &sched, i] {
                           q_t.emplace_back(sched.now().ps(), i);
                         });
    ref.schedule_after(SimTime::picoseconds(delays[static_cast<std::size_t>(i)]),
                       [&ref_t, &ref, i] {
                         ref_t.emplace_back(ref.now().ps(), i);
                       });
  }
  sched.run();
  ref.run();
  EXPECT_EQ(q_t, ref_t);
  EXPECT_EQ(sched.stream_hash(), ref.stream_hash());
  EXPECT_GE(sched.redistributions(), 1u);
  EXPECT_GT(sched.overflow_high_water(), 1000u)
      << "the first fire must re-sort most of the population at once";
}

// Fire both engines through the same scripted scenario and compare.
template <typename Script>
void expect_same_transcript(Script script) {
  Scheduler sched;
  ReferenceScheduler ref;
  Transcript q_t, ref_t;
  script(sched, q_t);
  script(ref, ref_t);
  EXPECT_EQ(q_t, ref_t);
  EXPECT_EQ(sched.stream_hash(), ref.stream_hash());
}

// (a) One timestamp's group reaches the ready run from two sources: 40
// events that a redistribution moved (spanning two bucket chunks, drained
// newest chunk first) and 40 scheduled after it.  All 80 fire in seq order.
TEST(QueuePropertyTest, EqualTimestampsSplitAcrossRedistributionFireInSeqOrder) {
  expect_same_transcript([](auto& s, Transcript& out) {
    const SimTime t = SimTime::picoseconds(1000);
    auto tagged = [&s, &out](int tag) {
      return [&s, &out, tag] { out.emplace_back(s.now().ps(), tag); };
    };
    for (int i = 0; i < 40; ++i) s.schedule_at(t, tagged(i));
    s.schedule_at(SimTime::picoseconds(999), [&s, &out, t, tagged] {
      out.emplace_back(s.now().ps(), -1);
      for (int i = 40; i < 80; ++i) s.schedule_at(t, tagged(i));
    });
    s.run();
  });
}

// (b) The widest keys the heap can hold share it with keys next to now().
TEST(QueuePropertyTest, KeysNearMaxSitBesideKeysNearNow) {
  expect_same_transcript([](auto& s, Transcript& out) {
    const std::int64_t max = SimTime::max().ps();
    const std::int64_t keys[] = {max, 3, max - 1, 0, max, 1, max - 3, 2, 0};
    int tag = 0;
    for (std::int64_t k : keys) {
      s.schedule_at(SimTime::picoseconds(k), [&s, &out, tag] {
        out.emplace_back(s.now().ps(), tag);
        if (tag == 5)  // re-arm next to now() while max-range keys wait
          s.schedule_after(SimTime::picoseconds(1), [&s, &out] {
            out.emplace_back(s.now().ps(), 100);
          });
      });
      ++tag;
    }
    s.run();
  });
}

// (c) A bounded step that peeks at a pending event must leave the heap's
// base where it was: an insert may still land between now() and that event.
TEST(QueuePropertyTest, PeekPastHorizonDoesNotMoveTheBase) {
  expect_same_transcript([](auto& s, Transcript& out) {
    auto at = [&s, &out](std::int64_t ps, int tag) {
      s.schedule_at(SimTime::picoseconds(ps),
                    [&s, &out, tag] { out.emplace_back(s.now().ps(), tag); });
    };
    at(100, 0);
    at(1'000'000, 1);
    at(1'000'001, 2);
    EXPECT_TRUE(s.step(SimTime::picoseconds(500)));  // fires t=100
    EXPECT_FALSE(s.step(SimTime::picoseconds(500)));
    EXPECT_FALSE(s.step(SimTime::picoseconds(999'999)));
    EXPECT_EQ(s.now(), SimTime::picoseconds(100));
    at(101, 3);
    at(600'000, 4);
    at(1'000'000, 5);  // ties with tag 1; later seq fires after it
    at(999'999, 6);
    s.run();
  });
}

// (d) Cancelling the head of the ready run, then the rest of it (which
// sweeps), leaves a run that still accepts and fires events due now.
TEST(QueuePropertyTest, CancelledReadyRunHeadIsSkipped) {
  Scheduler sched;
  std::vector<int> order;
  const SimTime t = SimTime::microseconds(5);
  std::vector<EventHandle> h;
  for (int i = 0; i < 4; ++i)
    h.push_back(sched.schedule_at(t, [&order, i] { order.push_back(i); }));
  ASSERT_TRUE(sched.step());  // fires 0; 1..3 wait in the ready run
  h[1].cancel();              // the run's head
  ASSERT_TRUE(sched.step());  // skips the tombstone, fires 2
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  h[3].cancel();  // tombstones now outnumber live events: swept
  EXPECT_EQ(sched.queued_entries(), 0u);
  EXPECT_EQ(sched.cancelled_entries(), 0u);
  sched.schedule_at(t, [&order] { order.push_back(4); });
  sched.schedule_at(t, [&order] { order.push_back(5); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 5}));
  EXPECT_EQ(sched.now(), t);
  EXPECT_EQ(sched.pool_in_use(), 0u);
}

// A tombstone due by the horizon shares a bucket with the earliest live
// event, which is not.  Only a live key may become the base: were the base
// moved to the tombstone (500), a later insert at 300 would sit below it and
// fire after the event at 501.
TEST(QueuePropertyTest, CancelledEventNeverBecomesTheBase) {
  Scheduler sched;
  std::vector<int> order;
  EventHandle dead = sched.schedule_at(SimTime::picoseconds(500),
                                       [&order] { order.push_back(0); });
  sched.schedule_at(SimTime::picoseconds(501), [&order] { order.push_back(1); });
  dead.cancel();  // one tombstone, one live event: no sweep
  ASSERT_EQ(sched.cancelled_entries(), 1u);
  EXPECT_FALSE(sched.step(SimTime::picoseconds(500)));
  sched.schedule_at(SimTime::picoseconds(300), [&order] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

}  // namespace
}  // namespace gtw::des
