#include "des/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace gtw::des {

namespace {
// FNV-1a over the 8 bytes of `v`, little-endian.
void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
}  // namespace

void EventHandle::cancel() {
  if (sched_ != nullptr && seq_ != 0) sched_->cancel(seq_, slot_);
  // Null every member, not just the scheduler pointer: a stale (seq_, slot_)
  // pair in a copied handle must never be able to alias a recycled slot.
  sched_ = nullptr;
  seq_ = 0;
  slot_ = 0xffffffffU;
}

bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->is_pending(seq_, slot_);
}

EventHandle Scheduler::schedule_at(SimTime when, Action action) {
  assert(when >= now_ && "cannot schedule into the past");
  const EventId id = pool_.acquire();
  Entry& e = pool_[id];
  e.seq = next_seq_++;
  e.action = std::move(action);
  e.cancelled = false;
  const std::uint64_t seq = e.seq;
  GTW_CHECK_HOOK(if (check_hook_ != nullptr)
                     check_hook_->on_schedule(when, now_, seq));
  if (span_hook_ != nullptr) span_hook_->on_event_scheduled(seq);
  ++live_events_;
  push(QItem{static_cast<std::uint64_t>(when.ps()), seq, id});
  return EventHandle{this, seq, id};
}

void Scheduler::push(QItem it) {
  if (it.key != last_) {
    push_to(static_cast<unsigned>(std::bit_width(it.key ^ last_)) - 1, it);
    return;
  }
  // Due now: a fresh seq is the largest yet, so appending keeps seq order
  // (a redistribution sorts the run once it has moved all its events).
  ready_.push_back(it);
  ready_high_water_ = std::max(ready_high_water_, ready_.size() - ready_head_);
}

void Scheduler::push_to(unsigned b, QItem it) {
  Bucket& bk = buckets_[b];
  const std::uint32_t fill = bk.size % kChunkItems;
  if (fill == 0) {
    const std::uint32_t c = chunks_.acquire();
    chunks_[c].next = bk.head;
    bk.head = c;
    nonempty_ |= std::uint64_t{1} << b;
  }
  chunks_[bk.head].items[fill] = it;
  ++bk.size;
}

template <typename F>
void Scheduler::drain(unsigned b, F&& f) {
  const Bucket bk = std::exchange(buckets_[b], Bucket{});
  nonempty_ &= ~(std::uint64_t{1} << b);
  std::uint32_t n = (bk.size - 1) % kChunkItems + 1;  // the head's fill
  for (std::uint32_t c = bk.head; c != kNoChunk; n = kChunkItems) {
    const Chunk& ch = chunks_[c];
    for (std::uint32_t i = 0; i < n; ++i) f(ch.items[i]);
    const std::uint32_t next = ch.next;
    chunks_.release(c);  // LIFO: the next push into a lower bucket reuses it
    c = next;
  }
}

std::uint64_t Scheduler::min_live_key(unsigned b) const {
  std::uint64_t m = kNoKey;
  std::uint32_t n = (buckets_[b].size - 1) % kChunkItems + 1;
  for (std::uint32_t c = buckets_[b].head; c != kNoChunk; n = kChunkItems) {
    const Chunk& ch = chunks_[c];
    // Only a candidate minimum pays the pool lookup for its tombstone flag.
    for (std::uint32_t i = 0; i < n; ++i)
      if (ch.items[i].key < m && !pool_[ch.items[i].id].cancelled)
        m = ch.items[i].key;
    c = ch.next;
  }
  return m;
}

bool Scheduler::refill(SimTime horizon) {
  ready_.clear();
  ready_head_ = 0;
  while (nonempty_ != 0) {
    const auto b = static_cast<unsigned>(std::countr_zero(nonempty_));
    const std::uint64_t m = min_live_key(b);
    if (m == kNoKey) {  // tombstones only
      drain(b, [this](const QItem& it) {
        --cancelled_in_q_;
        release_entry(it.id);
      });
      continue;
    }
    // Peeking past the horizon must not move the base: a later insert may
    // still land between now() and m.
    if (static_cast<std::int64_t>(m) > horizon.ps()) return false;
    // Every key in bucket b shares bits above b with last_ and with m, so
    // each live one moves to a strictly lower bucket or into the ready run.
    // Tombstones ride along unread, wherever their key sends them; they are
    // released when popped, when a bucket holds nothing else, or swept.
    last_ = m;
    std::size_t moved = 0;
    drain(b, [this, &moved](const QItem& it) {
      ++moved;
      push(it);
    });
    std::sort(ready_.begin(), ready_.end(),
              [](const QItem& x, const QItem& y) { return x.seq < y.seq; });
    ++redistributions_;
    overflow_high_water_ = std::max(overflow_high_water_, moved);
    return true;
  }
  return false;
}

void Scheduler::release_entry(EventId id) {
  Entry& e = pool_[id];
  e.action.reset();
  e.seq = 0;  // stale handles compare against this and miss
  e.cancelled = false;
  pool_.release(id);
}

void Scheduler::cancel(std::uint64_t seq, EventId slot) {
  if (seq == 0 || slot == SlabPool<Entry, 1024>::kInvalid) return;
  Entry& e = pool_[slot];
  if (e.seq != seq || e.cancelled) {
    // Stale handles (event already fired, slot possibly recycled) are a
    // documented no-op; a matching-but-tombstoned entry means a *copied*
    // handle cancelled the same live event twice — the seq-as-generation
    // defence caught an aliasing bug.
    GTW_CHECK_HOOK(if (check_hook_ != nullptr) check_hook_->on_cancel(
        seq, e.seq == seq && e.cancelled
                 ? SchedulerCheckHook::CancelOutcome::kDouble
                 : SchedulerCheckHook::CancelOutcome::kStale));
    return;
  }
  GTW_CHECK_HOOK(if (check_hook_ != nullptr) check_hook_->on_cancel(
      seq, SchedulerCheckHook::CancelOutcome::kCancelled));
  if (span_hook_ != nullptr) span_hook_->on_event_cancel(seq);
  e.cancelled = true;
  // Drop the capture now rather than at sweep/pop time — cancelled events
  // routinely hold the largest captures (retransmit timers with packets).
  e.action.reset();
  --live_events_;
  ++cancelled_in_q_;
  // Once tombstones outnumber live entries, sweep — cancellation-heavy
  // workloads stay O(live), not O(ever-scheduled).
  if (cancelled_in_q_ > live_events_) sweep_cancelled();
}

bool Scheduler::is_pending(std::uint64_t seq, EventId slot) const {
  if (seq == 0 || slot == SlabPool<Entry, 1024>::kInvalid) return false;
  const Entry& e = pool_[slot];
  return e.seq == seq && !e.cancelled;
}

void Scheduler::sweep_cancelled() {
  // Survivors go back to the bucket they came from, which is still the one
  // their key selects: the base has not moved.
  for (std::uint64_t bits = nonempty_; bits != 0; bits &= bits - 1) {
    const auto b = static_cast<unsigned>(std::countr_zero(bits));
    drain(b, [this, b](const QItem& it) {
      if (pool_[it.id].cancelled)
        release_entry(it.id);
      else
        push_to(b, it);
    });
  }
  auto alive = ready_.begin();
  for (auto it = alive + static_cast<std::ptrdiff_t>(ready_head_);
       it != ready_.end(); ++it) {
    if (pool_[it->id].cancelled)
      release_entry(it->id);
    else
      *alive++ = *it;
  }
  ready_.erase(alive, ready_.end());
  ready_head_ = 0;
  cancelled_in_q_ = 0;
}

bool Scheduler::step(SimTime horizon) {
  for (;;) {
    if (live_events_ == 0) {
      // Nothing left to fire; drop any remaining tombstones so a drained
      // scheduler reports zero queued entries.
      if (cancelled_in_q_ != 0) sweep_cancelled();
      return false;
    }
    if (ready_head_ == ready_.size() && !refill(horizon)) return false;
    const QItem it = ready_[ready_head_];
    if (static_cast<std::int64_t>(it.key) > horizon.ps()) return false;
    ++ready_head_;
    if (pool_[it.id].cancelled) {
      --cancelled_in_q_;
      release_entry(it.id);
      continue;
    }
    const SimTime when = SimTime::picoseconds(static_cast<std::int64_t>(it.key));
    GTW_CHECK_HOOK(if (check_hook_ != nullptr)
                       check_hook_->on_fire(when, it.seq));
    --live_events_;
    now_ = when;
    ++executed_;
    fnv1a_mix(stream_hash_, it.key);
    fnv1a_mix(stream_hash_, it.seq);
    // Move the action out and free the slot *before* invoking: the action
    // may schedule or cancel, and nothing below references the entry.
    Action action = std::move(pool_[it.id].action);
    release_entry(it.id);
    if (span_hook_ != nullptr) {
      span_hook_->on_event_fire(it.seq);
      action();
      span_hook_->on_event_done();
    } else {
      action();
    }
    return true;
  }
}

std::uint64_t Scheduler::run(SimTime horizon) {
  std::uint64_t n = 0;
  while (step(horizon)) ++n;
  if (queued_entries() != 0 && horizon != SimTime::max()) now_ = horizon;
  return n;
}

}  // namespace gtw::des
