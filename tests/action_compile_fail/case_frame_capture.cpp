// MUST NOT COMPILE: a per-packet event that captures its Frame by value.
// A Frame is far larger than the inline buffer, so this would cost one
// heap allocation per event; the frame belongs in the link's FIFO.
#include "des/action.hpp"
#include "des/scheduler.hpp"
#include "net/link.hpp"

int main() {
  using namespace gtw;
  des::Scheduler sched;
  net::Frame f;
  sched.schedule_after(des::SimTime::microseconds(1),
                       des::Action::inline_only([f]() { (void)f; }));
  return static_cast<int>(sched.run());
}
