// Component-owned FIFOs (DESIGN.md §10): des::Ring itself, and the link,
// switch and NIC queues built on it.  Per-packet events carry no payload,
// so these tests pin the properties that make that safe: FIFO order through
// wrap-around and growth, payload release at the pop, the link's outage
// semantics (mid-transmission frames lost with their span aborted, frames
// in propagation still delivered, conservation clean), and the CBR
// shaper's per-VC release order and times.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "des/ring.hpp"
#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/units.hpp"
#include "obs/span.hpp"

namespace gtw {
namespace {

std::vector<int> contents(const des::Ring<int>& r) {
  std::vector<int> out;
  for (int v : r) out.push_back(v);
  return out;
}

// --- des::Ring ----------------------------------------------------------------

TEST(RingTest, AllocatesLazilyAndKeepsFifoOrder) {
  des::Ring<int> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);
  for (int i = 0; i < 5; ++i) r.push_back(int{i});
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2, 3, 4}));
  r.pop_front();
  EXPECT_EQ(r.front(), 1);
  EXPECT_EQ(r[3], 4);
}

TEST(RingTest, WrapsAroundWithoutGrowing) {
  des::Ring<int> r;
  for (int i = 0; i < 8; ++i) r.push_back(int{i});
  const std::size_t cap = r.capacity();
  ASSERT_EQ(cap, 8u);
  // Advance the head three times round the array at constant size.
  for (int i = 8; i < 8 + 24; ++i) {
    EXPECT_EQ(r.front(), i - 8);
    r.pop_front();
    r.push_back(int{i});
  }
  EXPECT_EQ(r.capacity(), cap);
  EXPECT_EQ(contents(r), (std::vector<int>{24, 25, 26, 27, 28, 29, 30, 31}));
}

TEST(RingTest, GrowsWhileWrappedInOrder) {
  des::Ring<int> r;
  for (int i = 0; i < 8; ++i) r.push_back(int{i});
  for (int i = 0; i < 5; ++i) r.pop_front();
  for (int i = 8; i < 13; ++i) r.push_back(int{i});  // full, head mid-array
  ASSERT_EQ(r.size(), 8u);
  ASSERT_EQ(r.capacity(), 8u);
  r.push_back(13);  // grows with the live range split across the end
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(contents(r),
            (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12, 13}));
  for (int expect = 5; expect <= 13; ++expect) {
    EXPECT_EQ(r.front(), expect);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(RingTest, ClearKeepsCapacityAndRestartsCleanly) {
  des::Ring<int> r;
  for (int i = 0; i < 11; ++i) r.push_back(int{i});
  r.pop_front();
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(r.begin(), r.end());
  r.push_back(42);
  EXPECT_EQ(contents(r), (std::vector<int>{42}));
}

TEST(RingTest, PopReleasesAFramePayload) {
  auto payload = std::make_shared<const std::any>(7);
  des::Ring<net::Frame> r;
  net::Frame f;
  f.pkt.payload = payload;
  r.push_back(net::Frame(f));
  r.push_back(std::move(f));
  EXPECT_EQ(payload.use_count(), 3);
  r.pop_front();  // destroyed at the pop, not when the slot is reused
  EXPECT_EQ(payload.use_count(), 2);
  r.clear();
  EXPECT_EQ(payload.use_count(), 1);
}

// --- Link FIFOs under an outage ---------------------------------------------

net::Link::Config slow_link() {
  // 1250-byte frames take 100 us; propagation 1 ms.
  return {units::BitRate::mbps(100.0), des::SimTime::milliseconds(1),
          units::Bytes{1 << 20}, des::SimTime::zero()};
}

TEST(LinkFifoTest, CutMidTransmissionDropsTheFrameAndAbortsItsSpan) {
  des::Scheduler sched;
  obs::SpanTracer tracer;
  sched.set_span_hook(&tracer);
  net::Link link(sched, "cut", slow_link());
  int delivered = 0;
  link.set_sink([&](net::Frame) { ++delivered; });
  check::Monitor mon(sched);
  check::attach_link(mon, link);

  const des::TraceContext ctx = tracer.mint("test", sched.now());
  auto payload = std::make_shared<const std::any>(1);
  for (int i = 0; i < 3; ++i) {
    net::Frame f;
    f.wire_bytes = 1250;
    f.pkt.ctx = ctx;
    f.pkt.payload = payload;
    ASSERT_TRUE(link.submit(std::move(f)));
  }
  // Frame 0 is on the wire until 100 us; cut the line at 50 us.
  sched.schedule_at(des::SimTime::microseconds(50),
                    [&] { link.set_up(false); });
  sched.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.frames_sent(), 0u);
  EXPECT_EQ(link.outage_drops(), 3u);  // one mid-transmission, two queued
  EXPECT_EQ(link.queue_bytes(), 0u);
  EXPECT_EQ(payload.use_count(), 1);  // no frame copy left behind
  const auto serialize = std::count_if(
      tracer.spans().begin(), tracer.spans().end(), [&](const auto& s) {
        return tracer.layer(s) == "link" &&
               s.phase == des::SpanPhase::kSerialize;
      });
  EXPECT_EQ(serialize, 1);
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const auto& s = tracer.spans()[i];
    if (tracer.layer(s) != "link") continue;
    EXPECT_FALSE(s.open());
    // Frame 0's queue-wait ended when it reached the wire; every other
    // link span was cut short.
    if (s.phase != des::SpanPhase::kQueueWait || s.end.ps() != 0) {
      EXPECT_TRUE(s.aborted()) << "span " << i + 1;
    }
  }
  tracer.close_trace(ctx, sched.now());
  EXPECT_EQ(tracer.open_spans(), 0u);
  sched.set_span_hook(nullptr);
  EXPECT_EQ(mon.finish(), 0u);
  EXPECT_TRUE(mon.clean());
}

TEST(LinkFifoTest, FramesInPropagationSurviveACut) {
  des::Scheduler sched;
  net::Link link(sched, "prop", slow_link());
  std::vector<std::uint64_t> ids;
  std::vector<des::SimTime> at;
  link.set_sink([&](net::Frame f) {
    ids.push_back(f.pkt.id);
    at.push_back(sched.now());
  });
  check::Monitor mon(sched);
  check::attach_link(mon, link);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    net::Frame f;
    f.wire_bytes = 1250;
    f.pkt.id = i;
    link.submit(std::move(f));
  }
  // By 350 us frames 1-3 are past the transmitter (propagating until
  // 1.1/1.2/1.3 ms) and frame 4 is mid-wire.  Cut, then restore at 2 ms.
  sched.schedule_at(des::SimTime::microseconds(350),
                    [&] { link.set_up(false); });
  sched.schedule_at(des::SimTime::milliseconds(2), [&] {
    link.set_up(true);
    net::Frame f;
    f.wire_bytes = 1250;
    f.pkt.id = 7;
    link.submit(std::move(f));
  });
  EXPECT_EQ(mon.check_now(), 0u);
  sched.run();

  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 7}));
  ASSERT_EQ(at.size(), 4u);
  EXPECT_EQ(at[0], des::SimTime::microseconds(1100));
  EXPECT_EQ(at[1], des::SimTime::microseconds(1200));
  EXPECT_EQ(at[2], des::SimTime::microseconds(1300));
  EXPECT_EQ(at[3], des::SimTime::microseconds(3100));
  EXPECT_EQ(link.outage_drops(), 3u);  // frame 4 on the wire, 5-6 queued
  EXPECT_EQ(mon.finish(), 0u);
  EXPECT_TRUE(mon.clean());
}

// --- AtmSwitch fabric FIFO ---------------------------------------------------

TEST(AtmFabricTest, FramesLeaveTheFabricInArrivalOrder) {
  des::Scheduler sched;
  net::AtmSwitch sw(sched, "sw", des::SimTime::microseconds(5));
  const net::Link::Config fast{units::BitRate::gbps(10.0), des::SimTime::zero(),
                               units::Bytes{1 << 20}, des::SimTime::zero()};
  const int in = sw.add_port(fast);
  const int out_a = sw.add_port(fast);
  const int out_b = sw.add_port(fast);
  sw.add_route(in, 40, out_a, 50);
  sw.add_route(in, 41, out_b, 51);
  std::vector<std::uint64_t> seen;
  sw.connect_egress(out_a, [&](net::Frame f) { seen.push_back(f.pkt.id); });
  sw.connect_egress(out_b, [&](net::Frame f) { seen.push_back(f.pkt.id); });
  check::Monitor mon(sched);
  check::attach_atm_switch(mon, sw);
  net::FrameSink ingress = sw.ingress(in);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    net::Frame f;
    f.wire_bytes = 53;
    f.vc = i % 2 == 0 ? 40 : 41;
    f.pkt.id = i;
    ingress(std::move(f));
  }
  sched.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(mon.finish(), 0u);
  EXPECT_TRUE(mon.clean());
}

// --- AtmNic CBR shaper ---------------------------------------------------------

struct Release {
  std::uint32_t vc;
  std::uint64_t id;
  des::SimTime at;
  bool operator==(const Release&) const = default;
};

// Two VCs shaped to different rates, offered interleaved bursts at t=0.
// The expected uplink arrivals follow the virtual-scheduling rule the NIC
// documents: on each VC a PDU is released at max(now, the previous PDU's
// release + its emission time at the VC rate); releases then share the
// uplink FIFO in (release time, submission) order.
TEST(ShaperFifoTest, TwoShapedVcsReleaseInOrderAtContractTimes) {
  des::Scheduler sched;
  net::Host host(sched, "h", 1);
  const net::Link::Config up{units::BitRate::mbps(622.0), des::SimTime::zero(),
                             units::Bytes{1 << 20}, des::SimTime::zero()};
  net::AtmNic nic(sched, host, "h.atm", up);
  nic.map_vc(2, 40);
  nic.map_vc(3, 41);
  const units::BitRate rate[2] = {units::BitRate::mbps(10.0),
                                  units::BitRate::mbps(25.0)};
  nic.shape_vc(2, rate[0]);
  nic.shape_vc(3, rate[1]);
  std::vector<Release> got;
  nic.uplink().set_sink([&](net::Frame f) {
    got.push_back({f.vc, f.pkt.id, sched.now()});
  });

  struct Offer {
    std::uint64_t id;
    int vc_index;
    des::SimTime release;
    std::uint32_t wire;
  };
  std::vector<Offer> offers;
  des::SimTime next_free[2] = {des::SimTime::zero(), des::SimTime::zero()};
  for (std::uint64_t i = 1; i <= 12; ++i) {
    const int v = static_cast<int>(i % 2);
    net::IpPacket pkt;
    pkt.id = i;
    pkt.total_bytes = 500 + 100 * static_cast<std::uint32_t>(i);
    const std::uint32_t wire =
        net::aal5_wire_bytes(pkt.total_bytes + net::kLlcSnapBytes);
    const des::SimTime release = std::max(sched.now(), next_free[v]);
    next_free[v] = release + units::transmission_time(units::Bytes{wire},
                                                      rate[v]);
    offers.push_back({i, v, release, wire});
    nic.transmit(std::move(pkt), v == 0 ? 2 : 3);
  }
  sched.run();

  std::stable_sort(offers.begin(), offers.end(),
                   [](const Offer& a, const Offer& b) {
                     return a.release < b.release;
                   });
  std::vector<Release> want;
  des::SimTime wire_free = des::SimTime::zero();
  for (const Offer& o : offers) {
    const des::SimTime start = std::max(o.release, wire_free);
    wire_free =
        start + units::transmission_time(units::Bytes{o.wire}, up.rate);
    want.push_back({o.vc_index == 0 ? 40u : 41u, o.id, wire_free});
  }
  EXPECT_EQ(got, want);
  // Both VCs were actually held back (not just passed through).
  EXPECT_GT(want.back().at, des::SimTime::milliseconds(2));
}

TEST(ShaperFifoTest, ReshapingKeepsAVcInOrder) {
  des::Scheduler sched;
  net::Host host(sched, "h", 1);
  const net::Link::Config up{units::BitRate::mbps(622.0), des::SimTime::zero(),
                             units::Bytes{1 << 20}, des::SimTime::zero()};
  net::AtmNic nic(sched, host, "h.atm", up);
  nic.map_vc(2, 40);
  nic.shape_vc(2, units::BitRate::mbps(1.0));
  std::vector<std::uint64_t> ids;
  nic.uplink().set_sink([&](net::Frame f) { ids.push_back(f.pkt.id); });
  for (std::uint64_t i = 1; i <= 4; ++i) {
    net::IpPacket pkt;
    pkt.id = i;
    pkt.total_bytes = 1000;
    nic.transmit(std::move(pkt), 2);
  }
  // A faster contract while three PDUs are still held: later PDUs queue
  // behind them instead of overtaking.
  nic.shape_vc(2, units::BitRate::mbps(100.0));
  for (std::uint64_t i = 5; i <= 6; ++i) {
    net::IpPacket pkt;
    pkt.id = i;
    pkt.total_bytes = 1000;
    nic.transmit(std::move(pkt), 2);
  }
  sched.run();
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
}

}  // namespace
}  // namespace gtw
