// Must NOT compile: the span id begin_span() returns is discarded, so the
// span can never be ended or aborted.
#include "des/span_hook.hpp"

void send_message(gtw::des::SpanHook* h, gtw::des::TraceContext ctx,
                  gtw::des::SimTime now) {
  h->begin_span(ctx, gtw::des::SpanPhase::kTransfer, "meta", "msg", now);
}

int main() { return 0; }
