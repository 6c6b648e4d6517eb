// Must NOT compile: the same discard with the call split across physical
// lines.
#include "des/span_hook.hpp"

void send_segment(gtw::des::SpanHook* h, gtw::des::TraceContext ctx,
                  gtw::des::SimTime now) {
  h->begin_span(ctx, gtw::des::SpanPhase::kSerialize,
                "tcp",
                "segment",
                now);
}

int main() { return 0; }
