// MUST NOT COMPILE: a capture one word larger than des::Action's inline
// buffer.  Plain construction would silently fall back to the heap;
// inline_only() must refuse it.
#include <array>
#include <cstddef>

#include "des/action.hpp"
#include "des/scheduler.hpp"

int main() {
  using namespace gtw;
  des::Scheduler sched;
  std::array<std::byte, des::Action::kInlineBytes + 8> blob{};
  sched.schedule_after(des::SimTime::microseconds(1),
                       des::Action::inline_only([blob]() { (void)blob; }));
  return static_cast<int>(sched.run());
}
