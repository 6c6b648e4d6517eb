// Steady-state allocation proof for the per-packet path (DESIGN.md §10).
//
// Frames and packets wait in component-owned rings and every per-packet
// event captures only `this` (plus a small id), so once the rings, the
// event pool and the calendar have reached their high-water marks a UDP
// stream crosses Host -> AtmNic -> AtmSwitch -> Link -> Host without one
// heap allocation.  This binary replaces the global allocation functions
// with counting versions and asserts exactly that, over 10k frames after a
// warm-up, on the clean path and on the drop paths (bit errors, a mid-run
// line cut).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "des/action.hpp"
#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/units.hpp"

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

namespace gtw::net {
namespace {

constexpr HostId kA = 1;
constexpr HostId kB = 2;
constexpr std::uint16_t kPort = 9;

// Host a sends a 1000-byte UDP datagram to host b every 20 us (~400
// Mbit/s).  a's ATM uplink is exact; the switch's egress toward b is
// fluid, so both link fidelities and the switch fabric carry the stream.
struct Path {
  des::Scheduler sched;
  HostCosts costs{des::SimTime::microseconds(5), des::SimTime::microseconds(5),
                  1.0, 1.0};
  Host a{sched, "a", kA, costs};
  Host b{sched, "b", kB, costs};
  AtmSwitch sw{sched, "sw"};
  Link::Config exact{units::BitRate::mbps(622.0),
                     des::SimTime::microseconds(100), units::Bytes{8u << 20},
                     des::SimTime::zero()};
  AtmNic nic_a{sched, a, "a.atm", exact, kMtuAtmDefault};
  AtmNic nic_b{sched, b, "b.atm", exact, kMtuAtmDefault};
  std::uint64_t received = 0;

  Path() {
    Link::Config fluid = exact;
    fluid.fidelity = LinkFidelity::kFluid;
    const int pa = sw.add_port(exact);
    const int pb = sw.add_port(fluid);
    nic_a.uplink().set_sink(sw.ingress(pa));
    nic_b.uplink().set_sink(sw.ingress(pb));
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    VcAllocator vcs;
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    a.add_route(kB, &nic_a, kB);
    b.add_route(kA, &nic_b, kA);
    b.bind(IpProto::kUdp, kPort, [this](const IpPacket&) { ++received; });
  }

  Link& uplink() { return nic_a.uplink(); }
  Link& trunk() { return sw.egress_link(1); }

  void send_next() {
    IpPacket pkt;
    pkt.dst = kB;
    pkt.proto = IpProto::kUdp;
    pkt.dst_port = kPort;
    pkt.total_bytes = 1000;
    a.send_datagram(std::move(pkt));
    sched.schedule_after(des::SimTime::microseconds(20),
                         des::Action::inline_only([this]() { send_next(); }));
  }

  // Cut both lines for 1 ms, `after` from now: queued and mid-transmission
  // frames are lost, frames in propagation still arrive.
  void cut_lines(des::SimTime after) {
    Link* links[2] = {&uplink(), &trunk()};
    sched.schedule_after(after, des::Action::inline_only([links]() {
                           for (Link* l : links) l->set_up(false);
                         }));
    sched.schedule_after(after + des::SimTime::milliseconds(1),
                         des::Action::inline_only([links]() {
                           for (Link* l : links) l->set_up(true);
                         }));
  }

  // Step until `frames` more frames have left a's uplink.
  void run_frames(std::uint64_t frames) {
    const std::uint64_t target = uplink_frames() + frames;
    while (uplink_frames() < target && sched.step()) {
    }
  }
  std::uint64_t uplink_frames() { return uplink().submitted_frames(); }
};

TEST(SteadyStateAllocTest, CleanPathAllocatesNothing) {
  Path p;
  p.send_next();
  p.run_frames(2000);  // warm-up: rings, event pool and calendar settle
  ASSERT_GT(p.received, 1500u);

  const std::uint64_t before = g_allocations;
  const std::uint64_t got = p.received;
  p.run_frames(10000);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_GE(p.received - got, 9900u);
  EXPECT_GT(p.trunk().bursts_completed(), 0u);
  EXPECT_EQ(p.uplink().drops() + p.trunk().drops(), 0u);
}

TEST(SteadyStateAllocTest, DropPathsAllocateNothing) {
  Path p;
  p.uplink().set_bit_error_rate(1e-5);  // ~9% of the 1166-byte PDUs lost
  p.trunk().set_bit_error_rate(1e-5);
  p.send_next();
  p.run_frames(2000);
  // The measured window is one period of a periodic disturbance: 10k frames
  // with a 1 ms cut of both lines 50 ms in.  Warm up through the same
  // period until one allocates nothing.  Rings, the event pool and the
  // calendar keep their capacity, but each calendar bucket reaches its own
  // high-water mark separately, and a cut shifts which buckets events land
  // in, so the first periods may still grow one.
  auto period = [&p] {
    p.cut_lines(des::SimTime::milliseconds(50));
    p.run_frames(10000);
  };
  int warmup = 0;
  for (; warmup < 8; ++warmup) {
    const std::uint64_t start = g_allocations;
    period();
    if (g_allocations == start) break;
  }
  ASSERT_LT(warmup, 8) << "the calendar never settled";

  const std::uint64_t before = g_allocations;
  const std::uint64_t got = p.received;
  const std::uint64_t outage_before = p.uplink().outage_drops();
  period();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_GT(p.received - got, 7500u);
  EXPECT_GT(p.uplink().corrupted_frames() + p.trunk().corrupted_frames(), 0u);
  EXPECT_GT(p.uplink().outage_drops(), outage_before);
}

}  // namespace
}  // namespace gtw::net
