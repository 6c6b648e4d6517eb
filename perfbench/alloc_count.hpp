#pragma once

#include <cstdint>

namespace perfbench {

// Number of global operator new / new[] calls (every overload) since the
// last reset.  The replacement operators in alloc_count.cpp are linked into
// the benchmark driver only; the simulator libraries are unchanged.
std::uint64_t allocations();
void reset_allocations();

}  // namespace perfbench
