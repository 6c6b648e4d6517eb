#include "net/link.hpp"

#include <cassert>
#include <cmath>
#include <utility>

namespace gtw::net {

Link::Link(des::Scheduler& sched, std::string name, Config cfg)
    : sched_(sched), name_(std::move(name)), cfg_(cfg),
      created_at_(sched.now()) {
  assert(cfg_.rate.bps() > 0.0);
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up_) {
    // Flush the queue: anything waiting for the wire is lost with it.
    des::SpanHook* h = sched_.span_hook();
    for (const Frame& f : queue_) {
      ++outage_drops_;
      outage_dropped_bytes_ += f.wire_bytes;
      queued_bytes_ -= f.wire_bytes;
      if (h != nullptr) h->abort_span(f.span, sched_.now());
    }
    queue_.clear();
    queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
  } else {
    maybe_start();
  }
}

bool Link::submit(Frame f) {
  ++submitted_frames_;
  submitted_bytes_ += f.wire_bytes;
  if (!up_) {
    ++outage_drops_;
    outage_dropped_bytes_ += f.wire_bytes;
    return false;
  }
  if (units::Bytes{queued_bytes_ + f.wire_bytes} > cfg_.queue_limit) {
    ++drops_;
    dropped_bytes_ += f.wire_bytes;
    return false;
  }
  queued_bytes_ += f.wire_bytes;
  queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
  // Per-frame spans are an exact-mode feature: fluid bursts deliberately
  // give up per-frame identity, so they stay untraced.
  if (des::SpanHook* h = sched_.span_hook();
      h != nullptr && f.pkt.ctx.valid() &&
      cfg_.fidelity == LinkFidelity::kExact) {
    f.span = h->begin_span(f.pkt.ctx, des::SpanPhase::kQueueWait, "link",
                           name_.c_str(), sched_.now());
  }
  queue_.push_back(std::move(f));
  maybe_start();
  return true;
}

void Link::maybe_start() {
  if (transmitting_ || queue_.empty()) return;
  transmitting_ = true;

  if (cfg_.fidelity == LinkFidelity::kExact) {
    tx_frame_ = std::move(queue_.front());
    queue_.pop_front();
    Frame& f = tx_frame_;

    des::SpanHook* h = sched_.span_hook();
    if (h != nullptr) {
      h->end_span(f.span, sched_.now());  // queue-wait over
      f.span = f.pkt.ctx.valid()
                   ? h->begin_span(f.pkt.ctx, des::SpanPhase::kSerialize,
                                   "link", name_.c_str(), sched_.now())
                   : 0;
    }
    const des::SimTime tx =
        units::transmission_time(units::Bytes{f.wire_bytes}, cfg_.rate) +
        cfg_.per_frame_overhead;
    busy_accum_ += tx;
    // Bracket the schedule with adopt(): the transmit event belongs to the
    // frame's trace, not to whichever event pulled it off the queue.
    const des::TraceContext prev =
        h != nullptr ? h->adopt(f.pkt.ctx) : des::TraceContext{};
    sched_.schedule_after(
        tx, des::Action::inline_only([this]() { finish_transmit(); }));
    if (h != nullptr) h->adopt(prev);
    return;
  }

  // Fluid mode: clock out a burst of frames under one transmit event.  The
  // burst spans at most burst_frames frames and burst_window of wire time
  // (always at least one frame, so oversized frames degrade gracefully to
  // the exact path's one-event-per-frame behaviour).
  const BurstId idx = burst_pool_.acquire();
  auto& burst = burst_pool_[idx];
  burst.clear();
  des::SimTime total = des::SimTime::zero();
  while (!queue_.empty() && burst.size() < cfg_.burst_frames) {
    const des::SimTime tx =
        units::transmission_time(units::Bytes{queue_.front().wire_bytes},
                                 cfg_.rate) +
        cfg_.per_frame_overhead;
    if (!burst.empty() && total + tx > cfg_.burst_window) break;
    total += tx;
    burst.push_back(std::move(queue_.front()));
    queue_.pop_front();
    // A frame submitted under exact fidelity may carry an open queue span
    // into a runtime switch to fluid; bursts are untraced, so retire it.
    if (des::SpanHook* h = sched_.span_hook();
        h != nullptr && burst.back().span != 0) {
      h->end_span(burst.back().span, sched_.now());
      burst.back().span = 0;
    }
  }
  busy_accum_ += total;
  sched_.schedule_after(
      total, des::Action::inline_only([this, idx]() { finish_burst(idx); }));
}

void Link::finish_transmit() {
  Frame f = std::move(tx_frame_);
  transmitting_ = false;
  queued_bytes_ -= f.wire_bytes;
  queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
  des::SpanHook* h = sched_.span_hook();
  if (!up_) {
    // The line was cut while this frame was being clocked out.
    ++outage_drops_;
    outage_dropped_bytes_ += f.wire_bytes;
    if (h != nullptr) h->abort_span(f.span, sched_.now());
    return;
  }
  ++frames_sent_;
  bytes_sent_ += f.wire_bytes;
  if (h != nullptr) h->end_span(f.span, sched_.now());  // serialized
  if (cfg_.bit_error_rate > 0.0) {
    // P(frame corrupted) = 1 - (1-BER)^bits; the AAL5 CRC discards it.
    const double bits = static_cast<double>(f.wire_bytes) * 8.0;
    const double p_ok = std::exp(bits * std::log1p(-cfg_.bit_error_rate));
    if (!rng_.bernoulli(p_ok)) {
      ++corrupted_;
      maybe_start();
      return;
    }
  }
  if (sink_) {
    if (h != nullptr && f.pkt.ctx.valid())
      f.span = h->begin_span(f.pkt.ctx, des::SpanPhase::kPropagate, "link",
                             name_.c_str(), sched_.now());
    in_flight_.push_back(std::move(f));
    sched_.schedule_after(
        cfg_.propagation,
        des::Action::inline_only([this]() { finish_propagation(); }));
  }
  maybe_start();
}

void Link::finish_propagation() {
  Frame f = std::move(in_flight_.front());
  in_flight_.pop_front();
  if (des::SpanHook* h = sched_.span_hook(); h != nullptr)
    h->end_span(f.span, sched_.now());
  f.span = 0;
  sink_(std::move(f));
}

void Link::finish_burst(BurstId idx) {
  auto& burst = burst_pool_[idx];
  transmitting_ = false;
  for (const Frame& f : burst) queued_bytes_ -= f.wire_bytes;
  queue_depth_.update(sched_.now(), static_cast<double>(queued_bytes_));
  if (!up_) {
    // The line was cut mid-burst: every frame being clocked out is lost.
    for (const Frame& f : burst) {
      ++outage_drops_;
      outage_dropped_bytes_ += f.wire_bytes;
    }
    burst.clear();
    burst_pool_.release(idx);
    return;
  }
  ++bursts_completed_;
  // Per-frame BER draws in queue order — the same draw sequence the exact
  // path would make, so a link's error stream is fidelity-independent.
  std::size_t alive = 0;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    Frame& f = burst[i];
    ++frames_sent_;
    bytes_sent_ += f.wire_bytes;
    if (cfg_.bit_error_rate > 0.0) {
      const double bits = static_cast<double>(f.wire_bytes) * 8.0;
      const double p_ok = std::exp(bits * std::log1p(-cfg_.bit_error_rate));
      if (!rng_.bernoulli(p_ok)) {
        ++corrupted_;
        continue;
      }
    }
    if (alive != i) burst[alive] = std::move(f);
    ++alive;
  }
  burst.resize(alive);
  if (!burst.empty() && sink_) {
    // One propagation event delivers the whole burst, in order, at the
    // burst's completion time plus the propagation delay.
    sched_.schedule_after(cfg_.propagation,
                          des::Action::inline_only([this, idx]() {
                            auto& b = burst_pool_[idx];
                            for (Frame& f : b) sink_(std::move(f));
                            b.clear();
                            burst_pool_.release(idx);
                          }));
  } else {
    burst.clear();
    burst_pool_.release(idx);
  }
  maybe_start();
}

double Link::utilization() const {
  const des::SimTime span = sched_.now() - created_at_;
  if (span <= des::SimTime::zero()) return 0.0;
  return busy_accum_.sec() / span.sec();
}

double Link::mean_queue_bytes() const {
  return queue_depth_.average(sched_.now());
}

}  // namespace gtw::net
