// national_hybrid: the des_speed national star (32 sites, 2081 hosts, 4160
// simplex links) carrying 100k three-datagram UDP flows, access links exact
// and trunks fluid.  The NICs, link sinks and flow starts are benchmark
// code, so the link and host layers are timed from outside.
#include <memory>
#include <string>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/units.hpp"
#include "reference.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gtw;

constexpr int kSites = 32;
constexpr int kLeavesPerSite = 64;
constexpr std::uint64_t kFlows = 100'000;
constexpr int kDatagramsPerFlow = 3;
constexpr std::uint32_t kDatagramBytes = 4096 + net::kIpHeaderBytes;
constexpr double kWindowS = 0.3;  // flow starts spread over this span

// Point-to-point NIC: every packet goes onto one fixed egress link.
class P2pNic final : public net::Nic {
 public:
  P2pNic(net::Host& owner, std::string name, units::Bytes mtu,
         net::Link& link)
      : net::Nic(owner, std::move(name), mtu), link_(link) {}
  void transmit(net::IpPacket pkt, net::HostId) override {
    net::Frame f;
    f.wire_bytes = pkt.total_bytes + 8;  // LLC/SNAP-style encapsulation
    f.pkt = std::move(pkt);
    const Span span(Layer::kLinkSubmit);
    link_.submit(std::move(f));
  }

 private:
  net::Link& link_;
};

struct Topology {
  des::Scheduler sched;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<P2pNic>> nics;
  std::vector<net::Host*> leaves;
  std::uint64_t delivered = 0;

  net::Host* add_host(const std::string& name, net::HostCosts costs) {
    const auto id = static_cast<net::HostId>(hosts.size());
    hosts.push_back(std::make_unique<net::Host>(sched, name, id, costs));
    return hosts.back().get();
  }
  // One direction of a fibre: a link a -> b and the NIC on a feeding it.
  P2pNic* add_simplex(net::Host* a, net::Host* b, units::BitRate rate,
                      des::SimTime prop, units::Bytes qlimit,
                      net::LinkFidelity fid) {
    net::Link::Config cfg;
    cfg.rate = rate;
    cfg.propagation = prop;
    cfg.queue_limit = qlimit;
    cfg.fidelity = fid;
    links.push_back(std::make_unique<net::Link>(
        sched, a->name() + ">" + b->name(), cfg));
    net::Link* l = links.back().get();
    l->set_sink([b](net::Frame f) {
      const Span span(Layer::kHostReceive);
      b->receive_from_nic(std::move(f.pkt));
    });
    nics.push_back(std::make_unique<P2pNic>(*a, a->name() + ".nic",
                                            units::Bytes{9180}, *l));
    return nics.back().get();
  }
};

void build(Topology& t) {
  // Switch-class routers: sub-microsecond per packet.
  const net::HostCosts router{des::SimTime::nanoseconds(100),
                              des::SimTime::nanoseconds(100), 0.02, 0.02};
  const units::BitRate leaf_rate = net::kOc12Line * net::kSdhPayloadFraction;
  const units::BitRate trunk_rate = net::kOc48Line * net::kSdhPayloadFraction;
  const auto leaf_prop = des::SimTime::microseconds(5);   // metro fibre
  const auto trunk_prop = des::SimTime::milliseconds(1);  // ~200 km

  net::Host* core = t.add_host("core", router);
  core->set_forwarding(true);
  for (int s = 0; s < kSites; ++s) {
    const std::string sname = std::string("s").append(std::to_string(s));
    net::Host* r = t.add_host(sname, router);
    r->set_forwarding(true);
    P2pNic* up = t.add_simplex(r, core, trunk_rate, trunk_prop,
                               units::Bytes{8u << 20},
                               net::LinkFidelity::kFluid);
    P2pNic* down = t.add_simplex(core, r, trunk_rate, trunk_prop,
                                 units::Bytes{8u << 20},
                                 net::LinkFidelity::kFluid);
    r->set_default_route(up, core->id());
    for (int h = 0; h < kLeavesPerSite; ++h) {
      net::Host* leaf =
          t.add_host(sname + ".h" + std::to_string(h), net::HostCosts{});
      P2pNic* leaf_up = t.add_simplex(leaf, r, leaf_rate, leaf_prop,
                                      units::Bytes{2u << 20},
                                      net::LinkFidelity::kExact);
      P2pNic* r_down = t.add_simplex(r, leaf, leaf_rate, leaf_prop,
                                     units::Bytes{2u << 20},
                                     net::LinkFidelity::kExact);
      leaf->set_default_route(leaf_up, r->id());
      r->add_route(leaf->id(), r_down, leaf->id());
      core->add_route(leaf->id(), down, r->id());
      leaf->bind(net::IpProto::kUdp, 9,
                 [&t](const net::IpPacket&) { ++t.delivered; });
      t.leaves.push_back(leaf);
    }
  }
}

// The seed picks every flow's endpoints and start time.
void schedule_flows(Topology& t, std::uint64_t seed) {
  des::Rng rng{mix_seed(seed, 1)};
  const std::size_t n = t.leaves.size();
  const auto window_ps = static_cast<std::uint64_t>(kWindowS * 1e12);
  for (std::uint64_t f = 0; f < kFlows; ++f) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(n));
    auto dst = static_cast<std::size_t>(rng.uniform_int(n));
    if (dst == src) dst = (dst + 1) % n;
    const auto start =
        static_cast<std::int64_t>(1 + rng.uniform_int(window_ps));
    t.sched.schedule_at(
        des::SimTime::picoseconds(start),
        [h = t.leaves[src], to = t.leaves[dst]->id()] {
          for (int i = 0; i < kDatagramsPerFlow; ++i) {
            net::IpPacket p;
            p.dst = to;
            p.proto = net::IpProto::kUdp;
            p.total_bytes = kDatagramBytes;
            p.dst_port = 9;
            const Span span(Layer::kHostSend);
            h->send_datagram(p);
          }
        });
  }
}

}  // namespace

Result run_national(std::uint64_t seed) {
  Result res;
  PhaseClock clock;
  Topology t;
  build(t);
  schedule_flows(t, seed);
  clock.timed_begin();
  run_steps(t.sched);
  clock.timed_end();
  clock.add_to(res);

  LinkCounts links;
  for (const auto& l : t.links) links.add(*l);
  const double makespan_s = t.sched.now().sec();
  res.ops = 1;
  res.events = t.sched.events_executed();
  res.stream_hash = t.sched.stream_hash();
  res.figures["makespan_s"] = makespan_s;
  res.figures["delivered"] = static_cast<double>(t.delivered);
  res.layer["des.pool_high_water"] =
      static_cast<double>(t.sched.pool_high_water());
  res.layer["des.overflow_high_water"] =
      static_cast<double>(t.sched.overflow_high_water());
  links.publish(res);

  bool ok = res.check(t.delivered == kFlows * kDatagramsPerFlow,
                      "national: delivered " + std::to_string(t.delivered) +
                          " datagrams, expected " +
                          std::to_string(kFlows * kDatagramsPerFlow));
  ok = res.check(links.drops == 0, "national: " +
                                        std::to_string(links.drops) +
                                        " link drops") &&
       ok;
  ok = res.check(within_pct(makespan_s, kRefNationalMakespanS, kFidelityPct),
                 "national: makespan " + std::to_string(makespan_s) +
                     " s off the reference " +
                     std::to_string(kRefNationalMakespanS) + " s by >1%") &&
       ok;
  res.failed_ops = ok ? 0 : 1;
  return res;
}

}  // namespace perfbench
