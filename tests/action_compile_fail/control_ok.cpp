// Positive control for the inline_only() harness: the captures per-packet
// sites are allowed — `this`, `this` plus an id, and a capture exactly the
// size of the inline buffer.  If this target stops building, the WILL_FAIL
// cases are failing for toolchain reasons, not because inline_only()
// rejected them.
#include <array>
#include <cstddef>
#include <cstdint>

#include "des/action.hpp"
#include "des/scheduler.hpp"

namespace {

struct Component {
  int fired = 0;
  void on_event(std::uint32_t id) { fired += static_cast<int>(id); }
};

}  // namespace

int main() {
  using namespace gtw;
  des::Scheduler sched;
  Component c;
  Component* self = &c;
  const std::uint32_t id = 1;
  sched.schedule_after(des::SimTime::microseconds(1),
                       des::Action::inline_only([self]() { self->on_event(0); }));
  sched.schedule_after(
      des::SimTime::microseconds(2),
      des::Action::inline_only([self, id]() { self->on_event(id); }));
  std::array<std::byte, des::Action::kInlineBytes> blob{};
  sched.schedule_after(des::SimTime::microseconds(3),
                       des::Action::inline_only([blob]() { (void)blob; }));
  sched.run();
  return c.fired == 1 ? 0 : 1;
}
