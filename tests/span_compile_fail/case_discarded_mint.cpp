// Must NOT compile: the TraceContext mint() returns is discarded, so the
// trace can never be closed.
#include "des/span_hook.hpp"

void start_workload(gtw::des::SpanHook& h, gtw::des::SimTime now) {
  h.mint("bench.origin", now);
}

int main() { return 0; }
