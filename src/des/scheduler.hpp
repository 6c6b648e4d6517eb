// Deterministic discrete-event scheduler on a monotone radix heap.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), so a simulation run is a pure
// function of its inputs and seeds — a property the reproduction tests rely
// on when comparing repeated runs.
//
// Engine layout (DESIGN.md §10): event records live in a slab pool
// (des/pool.hpp) and carry their callable inline (des/action.hpp), so the
// steady-state schedule/fire cycle performs no heap allocation.  The queue
// is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan 1990) keyed by the fire
// time in integer picoseconds: simulated time never runs backwards, so an
// event waits in the bucket of the highest bit at which its time differs
// from the last fired time, and events due at exactly that time form a
// "ready run" in seq order.  When the run empties, the lowest non-empty
// bucket is scanned for its minimum, which becomes the new base, and its
// events drop into lower buckets or the run.  An event moves at most 64
// times in its life, so schedule/fire is O(1) amortized with no tuning
// knob; bucket storage is fixed-size chunks from one slab pool, so no
// bucket keeps a capacity of its own.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "des/action.hpp"
#include "des/check_hook.hpp"
#include "des/pool.hpp"
#include "des/span_hook.hpp"
#include "des/time.hpp"

namespace gtw::des {

class Scheduler;

// Cancellable handle to a scheduled event.  Default-constructed handles are
// inert; cancelling an already-fired event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* s, std::uint64_t seq, std::uint32_t slot)
      : sched_(s), seq_(seq), slot_(slot) {}
  Scheduler* sched_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0xffffffffU;
};

class Scheduler {
 public:
  using Action = des::Action;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() = default;

  SimTime now() const { return now_; }

  // Schedule `action` at absolute time `when` (must be >= now()).
  EventHandle schedule_at(SimTime when, Action action);
  // Schedule `action` `delay` after the current time.
  EventHandle schedule_after(SimTime delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  // Run until the event queue drains or `horizon` is reached, whichever is
  // first.  Returns the number of events executed.
  std::uint64_t run(SimTime horizon = SimTime::max());

  // Execute at most one event; returns false if the queue was empty or the
  // next event lies beyond `horizon`.
  bool step(SimTime horizon = SimTime::max());

  bool empty() const { return live_events_ == 0; }
  std::uint64_t events_executed() const { return executed_; }
  // Running FNV-1a hash over the executed event stream — each fired event
  // folds in its (timestamp, sequence) pair.  Two executions of the same
  // simulation must report identical hashes; the determinism regression
  // tests and the double-run replay gate compare exactly this.
  std::uint64_t stream_hash() const { return stream_hash_; }
  // Queue entries including cancelled ones not yet swept/popped — lets tests
  // observe that cancellation churn does not accumulate garbage.
  std::size_t queued_entries() const { return live_events_ + cancelled_in_q_; }
  std::size_t cancelled_entries() const { return cancelled_in_q_; }

  // --- engine observability (read-only; wired up by obs::instrument_scheduler)
  std::size_t live_events() const { return live_events_; }
  // Buckets scanned and emptied into lower buckets and the ready run.
  std::uint64_t redistributions() const { return redistributions_; }
  // Most entries the ready run (events due at one instant) ever held.
  std::size_t ready_high_water() const { return ready_high_water_; }
  // Most entries a single redistribution moved: the deepest re-sort of
  // not-yet-due events the heap ever paid for at once.
  std::size_t overflow_high_water() const { return overflow_high_water_; }
  // Event-pool footprint: slots allocated, currently live, and the peak.
  std::size_t pool_slots() const { return pool_.slots(); }
  std::size_t pool_in_use() const { return pool_.in_use(); }
  std::size_t pool_high_water() const { return pool_.high_water(); }
  std::size_t pool_slabs() const { return pool_.slabs(); }

  // GTW-San (check::attach_scheduler): observe schedule/fire/cancel in
  // event order.  The hook must outlive the scheduler or be detached with
  // nullptr first; it is notification-only and never steers the schedule.
  // The slot exists in every build; the notifying call sites are
  // GTW_CHECK_HOOK-guarded and compile away when checking is off.
  void set_check_hook(SchedulerCheckHook* hook) { check_hook_ = hook; }

  // Causal tracing (obs::SpanTracer, DESIGN.md §13): observe schedule/
  // fire/cancel so trace context propagates through continuation chains.
  // Present in every build; a null hook costs one branch per site.  The
  // hook must outlive the scheduler or be detached with nullptr first; it
  // observes only and never steers the schedule.
  void set_span_hook(SpanHook* hook) { span_hook_ = hook; }
  SpanHook* span_hook() const { return span_hook_; }
#if defined(GTW_CHECK)
  std::uint64_t pool_double_frees() const {
    return pool_.check_double_frees() + chunks_.check_double_frees();
  }
#endif

 private:
  friend class EventHandle;

  // The action leads so the record packs into 64 bytes; the fire time
  // lives only in the queue item.
  struct Entry {
    Action action;
    std::uint64_t seq = 0;  // 0 while the slot is free
    bool cancelled = false;
  };
  using EventId = std::uint32_t;

  // Queue item: the ordering key is carried inline so scans and the ready
  // run's sort read contiguous items instead of chasing the pool.
  struct QItem {
    std::uint64_t key;  // fire time in ps
    std::uint64_t seq;
    EventId id;
  };

  // Bucket storage: a chain of chunks, newest first.  Every chunk but the
  // head is full, so a bucket is just its head and its size.
  static constexpr std::uint32_t kChunkItems = 32;
  struct Chunk {
    QItem items[kChunkItems];
    std::uint32_t next;
  };
  using ChunkPool = SlabPool<Chunk, 64>;
  static constexpr std::uint32_t kNoChunk = ChunkPool::kInvalid;
  struct Bucket {
    std::uint32_t head = kNoChunk;
    std::uint32_t size = 0;
  };

  void cancel(std::uint64_t seq, EventId slot);
  bool is_pending(std::uint64_t seq, EventId slot) const;

  void push(QItem it);  // into the ready run or the bucket its key selects
  void push_to(unsigned b, QItem it);
  // Detach bucket b and hand each item to `f`, returning every chunk to the
  // pool as soon as its items are handed on.
  template <typename F>
  void drain(unsigned b, F&& f);
  std::uint64_t min_live_key(unsigned b) const;  // UINT64_MAX if none
  // Make the ready run hold the earliest live event if it is due by
  // `horizon`; false (and the base untouched) otherwise.
  bool refill(SimTime horizon);
  void release_entry(EventId id);
  void sweep_cancelled();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t stream_hash_ = 14695981039346656037ULL;  // FNV-1a offset

  std::size_t live_events_ = 0;    // scheduled, not yet fired or cancelled
  std::size_t cancelled_in_q_ = 0; // tombstones still occupying queue slots

  // Radix-heap state.  Invariant: every live item's key is >= last_ and
  // sits in the ready run (key == last_) or in bucket
  // bit_width(key ^ last_) - 1.  last_ moves only to the time of the event
  // about to fire, so it never passes an event that has not fired.
  std::uint64_t last_ = 0;
  std::uint64_t nonempty_ = 0;  // bit b set iff buckets_[b] holds items
  std::array<Bucket, 64> buckets_{};
  std::vector<QItem> ready_;    // seq-ordered; consumed from ready_head_
  std::size_t ready_head_ = 0;

  SlabPool<Entry, 1024> pool_;
  ChunkPool chunks_;

  std::uint64_t redistributions_ = 0;
  std::size_t ready_high_water_ = 0;
  std::size_t overflow_high_water_ = 0;
  SchedulerCheckHook* check_hook_ = nullptr;
  SpanHook* span_hook_ = nullptr;
};

}  // namespace gtw::des
