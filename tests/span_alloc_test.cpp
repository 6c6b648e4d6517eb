// Steady-state allocation gate for the span store (DESIGN.md section 13).
//
// Span records are fixed-size and name their layer and name by interned
// id, and pending contexts live in a seq-ordered vector, so once the names
// are interned and the vectors have grown, tracing a UDP stream across
// Host -> AtmNic -> AtmSwitch -> Link -> Host with every layer on costs
// only the span vector's amortised growth.  The untraced path allocates
// nothing (tests/net_alloc_test.cpp), so whatever this binary's counting
// allocation functions see is the tracer's own bookkeeping.  A second test
// churns retransmit-style timers under one context and holds the pending
// table at O(live) rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>

#include "des/action.hpp"
#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/units.hpp"
#include "obs/span.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gtw::obs {
namespace {

using des::SimTime;
using net::HostId;

constexpr HostId kA = 1;
constexpr HostId kB = 2;
constexpr std::uint16_t kPort = 9;

// Host a sends a 1000-byte UDP datagram to host b every 20 us under one
// trace.  a's ATM uplink is exact and the switch's egress toward b fluid,
// as in net_alloc_test.  Every component name is longer than a
// std::string's small buffer, so a store that copied names per span would
// allocate per span.
struct TracedPath {
  des::Scheduler sched;
  SpanTracer tracer;
  net::HostCosts costs{SimTime::microseconds(5), SimTime::microseconds(5),
                       1.0, 1.0};
  net::Host a{sched, "juelich.frontend.a", kA, costs};
  net::Host b{sched, "sankt_augustin.frontend.b", kB, costs};
  net::AtmSwitch sw{sched, "juelich.atm_switch"};
  net::Link::Config exact{units::BitRate::mbps(622.0),
                          SimTime::microseconds(100), units::Bytes{8u << 20},
                          SimTime::zero()};
  net::AtmNic nic_a{sched, a, "juelich.frontend.a.atm", exact,
                    net::kMtuAtmDefault};
  net::AtmNic nic_b{sched, b, "sankt_augustin.frontend.b.atm", exact,
                    net::kMtuAtmDefault};
  std::uint64_t received = 0;
  des::TraceContext ctx;

  TracedPath() {
    net::Link::Config fluid = exact;
    fluid.fidelity = net::LinkFidelity::kFluid;
    const int pa = sw.add_port(exact);
    const int pb = sw.add_port(fluid);
    nic_a.uplink().set_sink(sw.ingress(pa));
    nic_b.uplink().set_sink(sw.ingress(pb));
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    net::VcAllocator vcs;
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    a.add_route(kB, &nic_a, kB);
    b.add_route(kA, &nic_b, kA);
    b.bind(net::IpProto::kUdp, kPort,
           [this](const net::IpPacket&) { ++received; });
    sched.set_span_hook(&tracer);
    // The stream's first send mints the trace and adopts it; every later
    // send is scheduled by the one before and inherits it through the
    // scheduler.
    sched.schedule_at(SimTime::zero(), des::Action::inline_only([this] {
                        ctx = tracer.mint("udp.stream", sched.now());
                        tracer.adopt(ctx);
                        send_next();
                      }));
  }
  ~TracedPath() { sched.set_span_hook(nullptr); }

  void send_next() {
    net::IpPacket pkt;
    pkt.dst = kB;
    pkt.proto = net::IpProto::kUdp;
    pkt.dst_port = kPort;
    pkt.total_bytes = 1000;
    a.send_datagram(std::move(pkt));
    sched.schedule_after(SimTime::microseconds(20),
                         des::Action::inline_only([this]() { send_next(); }));
  }

  // Step until `frames` more frames have left a's uplink.
  void run_frames(std::uint64_t frames) {
    net::Link& uplink = nic_a.uplink();
    const std::uint64_t target = uplink.submitted_frames() + frames;
    while (uplink.submitted_frames() < target && sched.step()) {
    }
  }

  std::size_t spans_in(std::string_view layer, std::size_t from) const {
    return static_cast<std::size_t>(std::count_if(
        tracer.spans().begin() + static_cast<std::ptrdiff_t>(from),
        tracer.spans().end(),
        [&](const SpanTracer::Span& s) { return tracer.layer(s) == layer; }));
  }
};

TEST(SpanStoreAllocTest, TracedStreamAllocatesOnlyAmortisedGrowth) {
  TracedPath p;
  p.run_frames(2000);  // warm-up: names interned, rings and tables grown
  ASSERT_GT(p.received, 1500u);
  ASSERT_TRUE(p.ctx.valid());

  const std::uint64_t before = g_allocations;
  const std::uint64_t events_before = p.sched.events_executed();
  const std::size_t spans_before = p.tracer.spans().size();
  const std::uint64_t got = p.received;
  p.run_frames(10000);
  const std::uint64_t allocs = g_allocations - before;
  const std::uint64_t events = p.sched.events_executed() - events_before;

  EXPECT_GE(p.received - got, 9900u);
  ASSERT_GT(events, 10000u);
  EXPECT_LE(static_cast<double>(allocs), 0.01 * static_cast<double>(events))
      << allocs << " allocations over " << events << " events";
  // Every layer on the path recorded spans in the measured window.
  EXPECT_GE(p.spans_in("host", spans_before), 9900u);
  EXPECT_GE(p.spans_in("atm", spans_before), 9900u);
  EXPECT_GE(p.spans_in("link", spans_before), 9900u);
}

// An ack clock under one trace: every 10 us an ack fires, cancels the
// retransmit timer and re-arms it 200 ms out.  Only two traced events are
// ever pending (the next ack and the armed timer); the cancelled timers'
// rows must be reclaimed, not accumulate 100k tombstones.
struct AckClock {
  static constexpr std::uint64_t kAcks = 100'000;
  AckClock(des::Scheduler& s, SpanTracer& t) : sched(s), tracer(t) {}
  des::Scheduler& sched;
  SpanTracer& tracer;
  des::EventHandle rto;
  std::uint64_t acks = 0;
  std::size_t max_rows = 0;

  void ack() {
    ++acks;
    rto.cancel();
    rto = sched.schedule_after(SimTime::milliseconds(200),
                               des::Action::inline_only([] {}));
    max_rows = std::max(max_rows, tracer.pending_rows());
    if (acks < kAcks)
      sched.schedule_after(SimTime::microseconds(10),
                           des::Action::inline_only([this] { ack(); }));
  }
};

TEST(SpanStoreAllocTest, TimerChurnKeepsPendingTableAtLiveSize) {
  des::Scheduler sched;
  SpanTracer tracer;
  sched.set_span_hook(&tracer);
  AckClock clock(sched, tracer);
  des::TraceContext ctx;
  sched.schedule_at(SimTime::zero(), des::Action::inline_only([&] {
                      ctx = tracer.mint("tcp.rto_churn", sched.now());
                      tracer.adopt(ctx);
                      clock.ack();
                    }));
  while (clock.acks < 1000 && sched.step()) {
  }
  const std::uint64_t before = g_allocations;
  while (clock.acks < AckClock::kAcks && sched.step()) {
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(clock.acks, AckClock::kAcks);
  // Two live rows, at most as many tombstones, plus the row just appended.
  EXPECT_LE(clock.max_rows, 5u);

  sched.run();  // the last timer fires
  EXPECT_EQ(tracer.pending_rows(), 0u);
  tracer.close_trace(ctx, sched.now());
  EXPECT_EQ(tracer.open_spans(), 0u);
  sched.set_span_hook(nullptr);
}

}  // namespace
}  // namespace gtw::obs
