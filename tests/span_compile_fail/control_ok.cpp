// Positive control for the span_compile_fail harness: every sanctioned way
// of keeping what begin_span()/mint() return — stored, returned, consumed
// as an argument, or held in a named [[maybe_unused]] local.  If this
// target stops building, the WILL_FAIL cases are failing for toolchain
// reasons, not because the attribute rejected them.
#include <cstdint>

#include "des/span_hook.hpp"

namespace {

using gtw::des::SimTime;
using gtw::des::SpanHook;
using gtw::des::SpanPhase;
using gtw::des::TraceContext;

struct Message {
  TraceContext ctx;
  std::uint64_t span = 0;
};

std::uint64_t traced_send(SpanHook* h, Message& m, SimTime now) {
  m.ctx = h->mint("meta.path", now);                              // stored
  m.span = h->begin_span(m.ctx, SpanPhase::kTransfer, "meta", "msg", now);
  h->adopt(gtw::des::under(m.ctx, m.span));  // adopt is not a producer
  return h->begin_span(m.ctx, SpanPhase::kSerialize, "tcp", "segment",
                       now);                                      // returned
}

void consumed_as_argument(SpanHook* h, const Message& m, SimTime now) {
  h->end_span(h->begin_span(m.ctx, SpanPhase::kHostCpu, "tcp", "probe", now),
              now);
}

void sanctioned_exception(SpanHook* h, TraceContext ctx, SimTime now) {
  // The span of a fire-and-forget probe: retired by the trace abort cascade
  // at teardown, never individually.
  [[maybe_unused]] const std::uint64_t probe =
      h->begin_span(ctx, SpanPhase::kCompute, "obs", "probe", now);
}

}  // namespace

int main() {
  SpanHook* h = nullptr;
  if (h != nullptr) {
    Message m;
    traced_send(h, m, SimTime::zero());
    consumed_as_argument(h, m, SimTime::zero());
    sanctioned_exception(h, m.ctx, SimTime::zero());
  }
  return 0;
}
