#include "net/fault.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace gtw::net {

const char* to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkDown: return "link_down";
    case FaultEvent::Kind::kBerBurst: return "ber_burst";
    case FaultEvent::Kind::kHostOutage: return "host_outage";
    case FaultEvent::Kind::kBufferSqueeze: return "buffer_squeeze";
  }
  return "?";
}

void FaultPlan::link_down(Link& link, des::SimTime at, des::SimTime duration) {
  auto s = std::make_shared<Scripted>();
  s->ev = FaultEvent{FaultEvent::Kind::kLinkDown, link.name(), at, duration};
  s->apply = [&link]() { link.set_up(false); };
  s->revert = [&link]() { link.set_up(true); };
  arm(std::move(s));
}

void FaultPlan::ber_burst(Link& link, des::SimTime at, des::SimTime duration,
                          double ber) {
  auto s = std::make_shared<Scripted>();
  s->ev = FaultEvent{FaultEvent::Kind::kBerBurst, link.name(), at, duration};
  s->ev.ber = ber;
  // The prior rate is captured when the burst starts, not when it is
  // scripted, so stacking a burst on an already-degraded line restores the
  // degraded rate.
  auto prior = std::make_shared<double>(0.0);
  s->apply = [&link, ber, prior]() {
    *prior = link.config().bit_error_rate;
    link.set_bit_error_rate(ber);
  };
  s->revert = [&link, prior]() { link.set_bit_error_rate(*prior); };
  arm(std::move(s));
}

void FaultPlan::host_outage(Host& host, des::SimTime at,
                            des::SimTime duration) {
  auto s = std::make_shared<Scripted>();
  s->ev = FaultEvent{FaultEvent::Kind::kHostOutage, host.name(), at, duration};
  s->apply = [&host]() { host.set_up(false); };
  s->revert = [&host]() { host.set_up(true); };
  arm(std::move(s));
}

void FaultPlan::buffer_squeeze(Link& link, des::SimTime at,
                               des::SimTime duration,
                               units::Bytes queue_limit) {
  auto s = std::make_shared<Scripted>();
  s->ev = FaultEvent{FaultEvent::Kind::kBufferSqueeze, link.name(), at,
                     duration};
  s->ev.queue_limit = queue_limit;
  auto prior = std::make_shared<units::Bytes>();
  s->apply = [&link, queue_limit, prior]() {
    *prior = link.config().queue_limit;
    link.set_queue_limit(queue_limit);
  };
  s->revert = [&link, prior]() { link.set_queue_limit(*prior); };
  arm(std::move(s));
}

des::SimTime FaultPlan::horizon() const {
  des::SimTime end = des::SimTime::zero();
  for (const auto& s : events_) end = std::max(end, s->ev.at + s->ev.duration);
  return end;
}

std::uint64_t FaultPlan::begins() const {
  return std::accumulate(begins_.begin(), begins_.end(), std::uint64_t{0});
}

std::uint64_t FaultPlan::ends() const {
  return std::accumulate(ends_.begin(), ends_.end(), std::uint64_t{0});
}

void FaultPlan::arm(std::shared_ptr<Scripted> s) {
  events_.push_back(s);
  sched_->schedule_at(s->ev.at, [this, s]() {
    s->apply();
    ++active_;
    notify(s->ev, true);
    sched_->schedule_after(s->ev.duration, [this, s]() {
      s->revert();
      --active_;
      notify(s->ev, false);
    });
  });
}

void FaultPlan::notify(const FaultEvent& ev, bool active) {
  ++(active ? begins_ : ends_)[static_cast<std::size_t>(ev.kind)];
  for (const auto& obs : observers_) obs(ev, active);
}

}  // namespace gtw::net
