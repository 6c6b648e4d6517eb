#include "net/cpu.hpp"

namespace gtw::net {

void CpuResource::execute(des::SimTime cost, des::Action done) {
  des::SpanHook* h = sched_.span_hook();
  queue_.push_back(Job{cost, std::move(done),
                       h != nullptr ? h->current() : des::TraceContext{}});
  maybe_start();
}

void CpuResource::maybe_start() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  busy_accum_ += queue_.front().cost;
  des::SpanHook* h = sched_.span_hook();
  const des::TraceContext prev =
      h != nullptr ? h->adopt(queue_.front().ctx) : des::TraceContext{};
  sched_.schedule_after(queue_.front().cost,
                        des::Action::inline_only([this]() {
                          Job job = std::move(queue_.front());
                          queue_.pop_front();
                          busy_ = false;
                          ++jobs_;
                          job.done();
                          maybe_start();
                        }));
  if (h != nullptr) h->adopt(prev);
}

double CpuResource::utilization() const {
  const des::SimTime span = sched_.now() - created_at_;
  if (span <= des::SimTime::zero()) return 0.0;
  return busy_accum_.sec() / span.sec();
}

}  // namespace gtw::net
