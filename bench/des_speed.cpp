// S — DES engine speed and fidelity (DESIGN.md §10).  Not a paper figure:
// this bench certifies the simulator's engine core (the radix-heap event
// queue, pooled records and hybrid link fidelity) on three axes:
//
//  1. events/sec sweeps of the production scheduler against an in-bench
//     replica of the pre-refactor engine (binary heap of new-allocated
//     entries, std::function actions, std::map cancellation index), on a
//     PHOLD-style self-rescheduling workload and a TCP-timer churn workload.
//     Both engines execute the identical schedule; their event-stream hashes
//     must agree, so the speedup is measured on provably equal work.
//  2. fluid-vs-exact link fidelity accuracy on the paper scenarios (the E1
//     WAN bulk transfers and the Figure-2 fMRI pipeline): the batched-burst
//     serialization model must stay within 1% of the exact per-frame model.
//  3. a national-scale topology (32 sites, >2000 hosts, 100 000 flows)
//     far beyond the two-site testbed, run to completion in exact and in
//     hybrid fidelity (access links exact, trunks fluid).
//
// Writes BENCH_des_speed.json and OBS_des_speed.metrics.json.  With
// --replay every wall-clock-derived field is omitted so the double-run
// determinism gate can hold the artifact to byte identity; everything else
// (event counts, stream hashes, goodputs, divergences) is deterministic.
#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/attach.hpp"
#include "check/monitor.hpp"
#include "cli.hpp"
#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "fire/pipeline.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "obs/exporter.hpp"
#include "obs/instrument.hpp"
#include "obs/registry.hpp"
#include "scanner/phantom.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace gtw;

// ---------------------------------------------------------------------------
// Wall-clock stopwatch.  Timing is *reported* only (events/sec columns); it
// never feeds back into any simulation input, and --replay drops every field
// derived from it, so the determinism contract is untouched.
struct WallTimer {
  std::chrono::steady_clock::time_point t0 =   // gtw-lint: allow(wall-clock)
      std::chrono::steady_clock::now();        // gtw-lint: allow(wall-clock)
  double elapsed_s() const {
    const auto t1 = std::chrono::steady_clock::now();  // gtw-lint: allow(wall-clock)
    return std::chrono::duration<double>(t1 - t0).count();
  }
};

// ---------------------------------------------------------------------------
// Pre-refactor scheduler, reproduced verbatim from the engine this repo
// shipped before the engine overhaul: a std::push_heap/std::pop_heap
// binary heap of individually new-allocated entries, std::function actions
// (which heap-allocate every capture larger than the SBO of ~2 words), and a
// std::map from sequence number to entry for cancellation.  It exists only
// as the measurement baseline; production code uses des::Scheduler.
class BaselineScheduler {
 public:
  using Action = std::function<void()>;

  class Handle {
   public:
    Handle() = default;
    void cancel() {
      if (s_ != nullptr && seq_ != 0) s_->cancel(seq_);
      s_ = nullptr;
      seq_ = 0;
    }

   private:
    friend class BaselineScheduler;
    Handle(BaselineScheduler* s, std::uint64_t q) : s_(s), seq_(q) {}
    BaselineScheduler* s_ = nullptr;
    std::uint64_t seq_ = 0;
  };

  BaselineScheduler() = default;
  BaselineScheduler(const BaselineScheduler&) = delete;
  BaselineScheduler& operator=(const BaselineScheduler&) = delete;
  ~BaselineScheduler() {
    for (Entry* e : heap_) delete e;
  }

  des::SimTime now() const { return now_; }

  Handle schedule_at(des::SimTime when, Action action) {
    assert(when >= now_ && "cannot schedule into the past");
    auto* e = new Entry{when, next_seq_++, std::move(action), false};
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Order{});
    pending_.emplace(e->seq, e);
    return Handle{this, e->seq};
  }
  Handle schedule_after(des::SimTime delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  std::uint64_t run() {
    std::uint64_t n = 0;
    while (step()) ++n;
    return n;
  }

  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t stream_hash() const { return stream_hash_; }

 private:
  struct Entry {
    des::SimTime when;
    std::uint64_t seq;
    Action action;
    bool cancelled = false;
  };
  struct Order {
    bool operator()(const Entry* a, const Entry* b) const {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };

  static void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }

  void cancel(std::uint64_t seq) {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;
    it->second->cancelled = true;
    pending_.erase(it);
    ++cancelled_in_heap_;
    if (cancelled_in_heap_ > heap_.size() - cancelled_in_heap_) {
      auto alive = heap_.begin();
      for (Entry* e : heap_) {
        if (e->cancelled)
          delete e;
        else
          *alive++ = e;
      }
      heap_.erase(alive, heap_.end());
      std::make_heap(heap_.begin(), heap_.end(), Order{});
      cancelled_in_heap_ = 0;
    }
  }

  bool step() {
    while (!heap_.empty()) {
      Entry* e = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), Order{});
      heap_.pop_back();
      if (e->cancelled) {
        --cancelled_in_heap_;
        delete e;
        continue;
      }
      pending_.erase(e->seq);
      now_ = e->when;
      ++executed_;
      fnv1a_mix(stream_hash_, static_cast<std::uint64_t>(e->when.ps()));
      fnv1a_mix(stream_hash_, e->seq);
      Action action = std::move(e->action);
      delete e;
      action();
      return true;
    }
    return false;
  }

  des::SimTime now_ = des::SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t stream_hash_ = 14695981039346656037ULL;
  std::vector<Entry*> heap_;
  std::size_t cancelled_in_heap_ = 0;
  std::map<std::uint64_t, Entry*> pending_;
};

// ---------------------------------------------------------------------------
// Synthetic engine workloads, templated over the scheduler so the baseline
// and the radix heap execute bit-identical schedules.

struct RunStats {
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  double wall_s = 0.0;
};

// Closure ballast sized like the simulator's real hot-path actions: a
// per-packet event captures `this` plus one id (16 bytes, DESIGN.md §10), so
// the hold-model closure is a state pointer plus one word.  Both engines
// store it without a per-event allocation; the baseline still pays for its
// new-allocated entry and its cancellation-map node.
using Ballast = std::array<std::uint64_t, 1>;

// PHOLD-style hold model: a fixed population of self-rescheduling events.
// 15/16 hops stay within ~200 µs (low buckets), 1/16 jump up to ~80 ms
// ahead (high buckets, re-sorted by later redistributions), so the sweep
// exercises the whole bucket range, not just the happy path.
template <class Sched>
struct HoldState {
  Sched sched;
  des::Rng rng{0x686f6c64ULL};
  std::uint64_t to_schedule = 0;
  // 1-in-N hops jump far ahead (high buckets); 0 keeps every hop near
  // (low buckets — the network-simulation steady state, where pending
  // events are timers and serializations within a few RTTs of now).
  std::uint64_t far_one_in = 16;
};

template <class Sched>
void hold_fire(HoldState<Sched>* st, const Ballast& b) {
  if (st->to_schedule == 0) return;
  --st->to_schedule;
  const bool far =
      st->far_one_in != 0 && st->rng.uniform_int(st->far_one_in) == 0;
  const auto d = static_cast<std::int64_t>(
      1 + st->rng.uniform_int(far ? 80'000'000'000ULL : 200'000'000ULL));
  Ballast next = b;
  next[0] ^= static_cast<std::uint64_t>(d);
  auto fire = [st, next] { hold_fire(st, next); };
  static_assert(des::Action::fits_inline<decltype(fire)>(),
                "hold-model event must fit des::Action's inline buffer");
  st->sched.schedule_after(des::SimTime::picoseconds(d), std::move(fire));
}

template <class Sched>
RunStats run_hold(std::size_t population, std::uint64_t budget,
                  std::uint64_t far_one_in = 16) {
  HoldState<Sched> st;
  st.to_schedule = budget;
  st.far_one_in = far_one_in;
  const WallTimer timer;
  const Ballast b{};
  for (std::size_t i = 0; i < population && st.to_schedule != 0; ++i) {
    --st.to_schedule;
    const auto d =
        static_cast<std::int64_t>(1 + st.rng.uniform_int(200'000'000ULL));
    st.sched.schedule_at(des::SimTime::picoseconds(d),
                         [p = &st, b] { hold_fire(p, b); });
  }
  st.sched.run();
  return {st.sched.events_executed(), st.sched.stream_hash(),
          timer.elapsed_s()};
}

// TCP-retransmit-timer churn: every "segment send" arms an RTO timer that
// the next send cancels (the ack won the race) — except for a 1-in-8 stall
// where the timer genuinely fires first.  ~1 cancellation per executed
// event, the workload the old engine's sweep-and-rebuild was worst at.
template <class Sched>
struct ChurnSim {
  using Handle =
      decltype(std::declval<Sched&>().schedule_after(des::SimTime::zero(),
                                                     [] {}));
  Sched sched;
  des::Rng rng{0x636875726eULL};
  std::uint64_t sends_left = 0;
  std::uint64_t timeouts = 0;
  std::vector<Handle> rto;  // one armed timer per connection
};

template <class Sched>
void churn_send(ChurnSim<Sched>* sim, std::size_t c) {
  sim->rto[c].cancel();
  if (sim->sends_left == 0) return;
  --sim->sends_left;
  sim->rto[c] = sim->sched.schedule_after(des::SimTime::microseconds(500),
                                          [sim] { ++sim->timeouts; });
  const bool stall = sim->rng.uniform_int(8) == 0;
  const auto gap = static_cast<std::int64_t>(
      stall ? 700'000'000 : 1 + sim->rng.uniform_int(400'000'000ULL));
  sim->sched.schedule_after(des::SimTime::picoseconds(gap),
                            [sim, c] { churn_send(sim, c); });
}

template <class Sched>
RunStats run_churn(std::size_t connections, std::uint64_t budget) {
  ChurnSim<Sched> sim;
  sim.sends_left = budget;
  sim.rto.resize(connections);
  const WallTimer timer;
  for (std::size_t c = 0; c < connections; ++c) {
    const auto start =
        static_cast<std::int64_t>(1 + sim.rng.uniform_int(400'000'000ULL));
    sim.sched.schedule_at(des::SimTime::picoseconds(start),
                          [p = &sim, c] { churn_send(p, c); });
  }
  sim.sched.run();
  return {sim.sched.events_executed(), sim.sched.stream_hash(),
          timer.elapsed_s()};
}

struct SweepRow {
  const char* workload;
  std::size_t population;
  RunStats baseline;
  RunStats radix;
  bool hash_match() const { return baseline.hash == radix.hash; }
  double speedup() const {
    if (baseline.wall_s <= 0.0 || radix.wall_s <= 0.0) return 0.0;
    return (static_cast<double>(radix.events) / radix.wall_s) /
           (static_cast<double>(baseline.events) / baseline.wall_s);
  }
};

// ---------------------------------------------------------------------------
// Fluid-vs-exact accuracy on the paper scenarios.

struct FidelityRow {
  const char* scenario;
  const char* metric;
  double exact = 0.0;
  double fluid = 0.0;
  double divergence_pct() const {
    if (exact == 0.0) return 0.0;
    return 100.0 * std::abs(fluid - exact) / std::abs(exact);
  }
};

units::BitRate e1_goodput(net::LinkFidelity fid, bool wan_supercomputer) {
  testbed::TestbedOptions opts;
  opts.link_fidelity = fid;
  testbed::Testbed tb{opts};
  net::TcpConfig cfg;
  cfg.mss = tb.options().atm_mtu -
            units::Bytes{net::kIpHeaderBytes + net::kTcpHeaderBytes};
  cfg.recv_buffer = units::Bytes{1u << 20};
  net::Host& a = wan_supercomputer ? tb.t3e600() : tb.onyx2_juelich();
  net::Host& b = wan_supercomputer ? tb.sp2() : tb.onyx2_gmd();
  return net::run_bulk_transfer(tb.scheduler(), a, b,
                                units::Bytes{16u << 20}, cfg)
      .goodput;
}

double fig2_mean_delay_s(net::LinkFidelity fid) {
  testbed::TestbedOptions opts;
  opts.link_fidelity = fid;
  testbed::Testbed tb{opts};

  scanner::FmriConfig scfg;
  scfg.dims = {32, 32, 8};
  scfg.regions = {{10, 20, 4, 3.0, 0.05}};
  scfg.expected_scans = 8;
  scanner::FmriSeriesGenerator gen(scfg);

  fire::AnalysisConfig acfg;
  acfg.stimulus = scfg.stimulus;
  acfg.hrf = scfg.hrf;
  acfg.tr_s = scfg.tr_s;
  acfg.motion_correction = false;
  acfg.detrend_cfg.expected_scans = scfg.expected_scans;
  fire::AnalysisEngine engine(scfg.dims, acfg);

  fire::PipelineConfig cfg;
  cfg.n_scans = 8;
  cfg.t3e_pes = 256;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg,
      [&gen](int t) { return gen.acquire(t); }, &engine);
  pipe.start();
  tb.scheduler().run();
  return pipe.result().mean_total_delay_s;
}

// ---------------------------------------------------------------------------
// National-scale scenario: a star of `sites` metro sites hanging off one
// national core, each site an access router fanning out to `leaves_per_site`
// hosts.  100 000 datagram flows cross it.  Dozens of sites and thousands
// of hosts is the scale the two-site testbed was the prototype for; hybrid
// fidelity (exact access links, fluid trunks) is what makes it tractable.

// Point-to-point NIC: transmits every packet onto one fixed egress link
// (the far end of the fibre delivers to the peer host).
class P2pNic final : public net::Nic {
 public:
  P2pNic(net::Host& owner, std::string name, units::Bytes mtu,
         net::Link& link)
      : net::Nic(owner, std::move(name), mtu), link_(link) {}
  void transmit(net::IpPacket pkt, net::HostId) override {
    net::Frame f;
    f.wire_bytes = pkt.total_bytes + 8;  // LLC/SNAP-style encapsulation
    f.pkt = std::move(pkt);
    link_.submit(std::move(f));
  }

 private:
  net::Link& link_;
};

struct NationalConfig {
  int sites = 32;
  int leaves_per_site = 64;
  std::uint64_t flows = 100'000;
  int datagrams_per_flow = 3;
  std::uint32_t flow_datagram_bytes = 4096 + net::kIpHeaderBytes;
  double window_s = 0.3;  // flow starts spread over this span
  net::LinkFidelity trunk_fidelity = net::LinkFidelity::kFluid;
};

struct NationalStats {
  std::size_t hosts = 0;
  std::size_t links = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  bool completed = false;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  double makespan_s = 0.0;
  double wall_s = 0.0;
  // (simulated time, running stream hash) sampled every checkpoint
  // interval; the determinism gate diffs these between runs to localize a
  // divergence to a simulated-time window instead of a raw byte offset.
  std::vector<std::pair<double, std::uint64_t>> hash_checkpoints;
};

NationalStats run_national(const NationalConfig& nc, bool emit_obs) {
  des::Scheduler sched;
  std::vector<std::unique_ptr<net::Host>> hosts;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<P2pNic>> nics;
  const units::Bytes mtu{9180};

  auto add_host = [&](const std::string& name,
                      net::HostCosts costs) -> net::Host* {
    const auto id = static_cast<net::HostId>(hosts.size());
    hosts.push_back(std::make_unique<net::Host>(sched, name, id, costs));
    return hosts.back().get();
  };
  // One direction of a fibre: a link from `a` to `b` plus the NIC on `a`
  // that feeds it.  Returns the NIC (for routing table entries on `a`).
  auto add_simplex = [&](net::Host* a, net::Host* b, units::BitRate rate,
                         des::SimTime prop, units::Bytes qlimit,
                         net::LinkFidelity fid) -> P2pNic* {
    net::Link::Config cfg;
    cfg.rate = rate;
    cfg.propagation = prop;
    cfg.queue_limit = qlimit;
    cfg.fidelity = fid;
    links.push_back(std::make_unique<net::Link>(
        sched, a->name() + ">" + b->name(), cfg));
    net::Link* l = links.back().get();
    l->set_sink([b](net::Frame f) { b->receive_from_nic(std::move(f.pkt)); });
    nics.push_back(
        std::make_unique<P2pNic>(*a, a->name() + ".nic", mtu, *l));
    return nics.back().get();
  };

  // Switch-class routers: sub-µs per packet, unlike end-system stacks.
  const net::HostCosts router_costs{des::SimTime::nanoseconds(100),
                                    des::SimTime::nanoseconds(100), 0.02,
                                    0.02};
  const units::BitRate leaf_rate = net::kOc12Line * net::kSdhPayloadFraction;
  const units::BitRate trunk_rate = net::kOc48Line * net::kSdhPayloadFraction;
  const auto leaf_prop = des::SimTime::microseconds(5);     // metro fibre
  const auto trunk_prop = des::SimTime::milliseconds(1);    // ~200 km

  net::Host* core = add_host("core", router_costs);
  core->set_forwarding(true);
  std::vector<net::Host*> leaves;
  net::Link* first_core_trunk = nullptr;

  std::uint64_t delivered = 0;
  for (int s = 0; s < nc.sites; ++s) {
    // append(), not "s" + to_string(): GCC 12 at -O2 raises a false
    // -Wrestrict on operator+(const char*, std::string&&).
    const std::string sname = std::string("s").append(std::to_string(s));
    net::Host* router = add_host(sname, router_costs);
    router->set_forwarding(true);
    P2pNic* router_up = add_simplex(router, core, trunk_rate, trunk_prop,
                                    units::Bytes{8u << 20},
                                    nc.trunk_fidelity);
    P2pNic* core_down = add_simplex(core, router, trunk_rate, trunk_prop,
                                    units::Bytes{8u << 20},
                                    nc.trunk_fidelity);
    if (first_core_trunk == nullptr) first_core_trunk = links.back().get();
    router->set_default_route(router_up, core->id());

    for (int h = 0; h < nc.leaves_per_site; ++h) {
      net::Host* leaf =
          add_host(sname + ".h" + std::to_string(h), net::HostCosts{});
      P2pNic* leaf_up = add_simplex(leaf, router, leaf_rate, leaf_prop,
                                    units::Bytes{2u << 20},
                                    net::LinkFidelity::kExact);
      P2pNic* router_down = add_simplex(router, leaf, leaf_rate, leaf_prop,
                                        units::Bytes{2u << 20},
                                        net::LinkFidelity::kExact);
      leaf->set_default_route(leaf_up, router->id());
      router->add_route(leaf->id(), router_down, leaf->id());
      core->add_route(leaf->id(), core_down, router->id());
      leaf->bind(net::IpProto::kUdp, 9,
                 [&delivered](const net::IpPacket&) { ++delivered; });
      leaves.push_back(leaf);
    }
  }

  // The flows: random leaf pairs, starts spread across the window.
  des::Rng rng{0x6e6174696f6eULL};
  const auto window_ps = static_cast<std::uint64_t>(nc.window_s * 1e12);
  for (std::uint64_t f = 0; f < nc.flows; ++f) {
    const auto src = static_cast<std::size_t>(
        rng.uniform_int(leaves.size()));
    auto dst = static_cast<std::size_t>(rng.uniform_int(leaves.size()));
    if (dst == src) dst = (dst + 1) % leaves.size();
    const auto start =
        static_cast<std::int64_t>(1 + rng.uniform_int(window_ps));
    sched.schedule_at(
        des::SimTime::picoseconds(start),
        [h = leaves[src], to = leaves[dst]->id(), &nc] {
          for (int i = 0; i < nc.datagrams_per_flow; ++i) {
            net::IpPacket p;
            p.dst = to;
            p.proto = net::IpProto::kUdp;
            p.total_bytes = nc.flow_datagram_bytes;
            p.dst_port = 9;
            h->send_datagram(p);
          }
        });
  }

  // GTW-San: full conservation sweep over the national topology.  Attaching
  // schedules nothing, so the event stream (and its hash checkpoints) is
  // identical to an unmonitored run.
  check::Monitor mon(sched);
  check::attach_scheduler(mon, sched);
  for (const auto& h : hosts) check::attach_host(mon, *h);
  for (const auto& l : links) check::attach_link(mon, *l);

  const WallTimer timer;
  // Drive the run step-by-step so the stream hash can be sampled at fixed
  // simulated-time checkpoints.  Pure observation: nothing is scheduled,
  // so events and final hash match a plain sched.run() exactly.
  std::vector<std::pair<double, std::uint64_t>> checkpoints;
  const auto cp_interval = des::SimTime::milliseconds(25);
  des::SimTime next_cp = cp_interval;
  while (sched.step()) {
    while (sched.now() >= next_cp) {
      checkpoints.emplace_back(next_cp.sec(), sched.stream_hash());
      next_cp = next_cp + cp_interval;
    }
  }
  const double wall_s = timer.elapsed_s();

  mon.finish();
  mon.require_clean(emit_obs ? "des_speed national hybrid"
                             : "des_speed national exact");

  if (emit_obs) {
    // Snapshot the engine-core dashboard after the run (probes read current
    // values at export time); gtw-trace --obs renders this file.
    obs::Registry reg;
    obs::instrument_scheduler(reg, sched);
    obs::instrument_link(reg, *first_core_trunk, "net.link.core_trunk0");
    std::ofstream metrics("OBS_des_speed.metrics.json", std::ios::binary);
    obs::write_metrics_json(metrics, reg, "des_speed national hybrid");
  }

  std::uint64_t drops = 0;
  for (const auto& l : links)
    drops += l->drops() + l->outage_drops() + l->corrupted_frames();
  const std::uint64_t expected =
      nc.flows * static_cast<std::uint64_t>(nc.datagrams_per_flow);
  NationalStats st;
  st.hosts = hosts.size();
  st.links = links.size();
  st.delivered = delivered;
  st.drops = drops;
  st.completed = delivered == expected && drops == 0;
  st.events = sched.events_executed();
  st.hash = sched.stream_hash();
  st.makespan_s = sched.now().sec();
  st.wall_s = wall_s;
  st.hash_checkpoints = std::move(checkpoints);
  // The final hash is always the last checkpoint, even off the grid.
  st.hash_checkpoints.emplace_back(st.makespan_s, st.hash);
  return st;
}

// ---------------------------------------------------------------------------

void print_des_speed(bool replay, bool quick) {
  std::printf("== DES engine: radix heap vs pre-refactor baseline ==%s\n",
              quick ? " (quick)" : "");

  struct SweepCase {
    const char* workload;
    std::size_t population;
    std::uint64_t budget;
    std::uint64_t far_one_in;
  };
  // --quick: the CI check-build job wants every code path (all workloads,
  // both national fidelities) under GTW_CHECK without the full event
  // budgets; artifacts from quick and full runs are never cross-compared.
  const SweepCase full_cases[] = {
      {"hold", 1'000, 300'000, 16},
      {"hold", 10'000, 500'000, 16},
      {"hold", 100'000, 800'000, 16},
      {"hold_near", 1'000'000, 1'500'000, 0},
      {"churn", 20'000, 400'000, 0},
  };
  const SweepCase quick_cases[] = {
      {"hold", 1'000, 60'000, 16},
      {"hold", 10'000, 80'000, 16},
      {"hold", 100'000, 150'000, 16},
      {"hold_near", 100'000, 200'000, 0},
      {"churn", 5'000, 80'000, 0},
  };
  const SweepCase* cases = quick ? quick_cases : full_cases;
  const std::size_t n_cases = 5;
  // Best of two runs per engine: the schedule (and hash) is identical both
  // times, only the wall clock varies, so min-of-N is the standard way to
  // strip scheduler/turbo noise from the rate estimate.
  std::vector<SweepRow> rows;
  for (std::size_t ci = 0; ci < n_cases; ++ci) {
    const SweepCase& c = cases[ci];
    SweepRow r;
    r.workload = c.workload;
    r.population = c.population;
    const auto best = [](RunStats a, RunStats b) {
      assert(a.hash == b.hash && a.events == b.events);
      return a.wall_s <= b.wall_s ? a : b;
    };
    if (std::string_view(c.workload) == "churn") {
      r.baseline = best(run_churn<BaselineScheduler>(c.population, c.budget),
                        run_churn<BaselineScheduler>(c.population, c.budget));
      r.radix = best(run_churn<des::Scheduler>(c.population, c.budget),
                        run_churn<des::Scheduler>(c.population, c.budget));
    } else {
      r.baseline = best(run_hold<BaselineScheduler>(c.population, c.budget,
                                                    c.far_one_in),
                        run_hold<BaselineScheduler>(c.population, c.budget,
                                                    c.far_one_in));
      r.radix = best(
          run_hold<des::Scheduler>(c.population, c.budget, c.far_one_in),
          run_hold<des::Scheduler>(c.population, c.budget, c.far_one_in));
    }
    rows.push_back(r);
  }

  std::printf("workload | population |   events | hash match |"
              " baseline ev/s |    radix ev/s | speedup\n");
  for (const SweepRow& r : rows) {
    if (replay) {
      std::printf("%8s | %10zu | %8llu | %10s |      (replay) |"
                  "      (replay) |  --\n",
                  r.workload, r.population,
                  static_cast<unsigned long long>(r.radix.events),
                  r.hash_match() ? "yes" : "NO");
    } else {
      std::printf("%8s | %10zu | %8llu | %10s | %13.3g | %13.3g | %6.2fx\n",
                  r.workload, r.population,
                  static_cast<unsigned long long>(r.radix.events),
                  r.hash_match() ? "yes" : "NO",
                  static_cast<double>(r.baseline.events) / r.baseline.wall_s,
                  static_cast<double>(r.radix.events) / r.radix.wall_s,
                  r.speedup());
    }
  }

  std::printf("\n== link fidelity: fluid bursts vs exact per-frame ==\n");
  FidelityRow fid[3];
  fid[0] = {"e1_wan_t3e_sp2", "goodput_bps",
            e1_goodput(net::LinkFidelity::kExact, true).bps(),
            e1_goodput(net::LinkFidelity::kFluid, true).bps()};
  fid[1] = {"e1_wan_onyx2", "goodput_bps",
            e1_goodput(net::LinkFidelity::kExact, false).bps(),
            e1_goodput(net::LinkFidelity::kFluid, false).bps()};
  fid[2] = {"fig2_fmri", "mean_total_delay_s",
            fig2_mean_delay_s(net::LinkFidelity::kExact),
            fig2_mean_delay_s(net::LinkFidelity::kFluid)};

  std::printf("\n== national scale: %s ==\n",
              quick ? "8 sites, 137 hosts, 10000 flows (quick)"
                    : "32 sites, 2081 hosts, 100000 flows");
  NationalConfig exact_cfg;
  exact_cfg.trunk_fidelity = net::LinkFidelity::kExact;
  if (quick) {
    exact_cfg.sites = 8;
    exact_cfg.leaves_per_site = 16;
    exact_cfg.flows = 10'000;
  }
  const NationalStats nat_exact = run_national(exact_cfg, /*emit_obs=*/false);
  NationalConfig hybrid_cfg;
  if (quick) {
    hybrid_cfg.sites = 8;
    hybrid_cfg.leaves_per_site = 16;
    hybrid_cfg.flows = 10'000;
  }
  const NationalStats nat_hybrid = run_national(hybrid_cfg, /*emit_obs=*/true);
  FidelityRow nat_row{"national", "makespan_s", nat_exact.makespan_s,
                      nat_hybrid.makespan_s};

  for (const FidelityRow& r : {fid[0], fid[1], fid[2], nat_row})
    std::printf("%-16s %-20s exact %.6g  fluid %.6g  divergence %.4f%%\n",
                r.scenario, r.metric, r.exact, r.fluid, r.divergence_pct());

  auto print_nat = [&](const char* mode, const NationalStats& n) {
    std::printf("%-7s: %zu hosts, %zu links, delivered %llu, drops %llu, "
                "%llu events, makespan %.4f s%s\n",
                mode, n.hosts, n.links,
                static_cast<unsigned long long>(n.delivered),
                static_cast<unsigned long long>(n.drops),
                static_cast<unsigned long long>(n.events), n.makespan_s,
                n.completed ? "" : "  [INCOMPLETE]");
  };
  print_nat("exact", nat_exact);
  print_nat("hybrid", nat_hybrid);
  if (!replay)
    std::printf("hybrid wall %.2f s (%.3g events/s); exact wall %.2f s\n",
                nat_hybrid.wall_s,
                static_cast<double>(nat_hybrid.events) / nat_hybrid.wall_s,
                nat_exact.wall_s);

  double max_div = 0.0;
  for (const FidelityRow& r : {fid[0], fid[1], fid[2], nat_row})
    max_div = std::max(max_div, r.divergence_pct());
  const SweepRow& largest = rows[3];  // hold_near @ population 1M
  std::printf("\nlargest exact-mode sweep speedup: %s; max fluid divergence "
              "%.4f%% (budget: 1%%)\n",
              replay ? "(replay)" : std::to_string(largest.speedup()).c_str(),
              max_div);

  // ---- BENCH_des_speed.json ----
  std::ofstream json("BENCH_des_speed.json", std::ios::binary);
  json << "{\n  \"bench\": \"des_speed\",\n  \"replay\": "
       << (replay ? "true" : "false") << ",\n  \"quick\": "
       << (quick ? "true" : "false") << ",\n  \"sweeps\": [\n";
  char buf[640];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\": \"%s\", \"population\": %zu, "
                  "\"events\": %llu, \"stream_hash\": \"0x%016llx\", "
                  "\"hash_match\": %s",
                  r.workload, r.population,
                  static_cast<unsigned long long>(r.radix.events),
                  static_cast<unsigned long long>(r.radix.hash),
                  r.hash_match() ? "true" : "false");
    json << buf;
    if (!replay) {
      std::snprintf(
          buf, sizeof buf,
          ", \"baseline_events_per_s\": %.17g, "
          "\"radix_events_per_s\": %.17g, \"speedup\": %.17g",
          static_cast<double>(r.baseline.events) / r.baseline.wall_s,
          static_cast<double>(r.radix.events) / r.radix.wall_s,
          r.speedup());
      json << buf;
    }
    json << (i + 1 < rows.size() ? "},\n" : "}\n");
  }
  json << "  ],\n";
  if (!replay) {
    std::snprintf(buf, sizeof buf, "  \"largest_exact_speedup\": %.17g,\n",
                  largest.speedup());
    json << buf;
  }
  json << "  \"fidelity\": [\n";
  const FidelityRow all_fid[] = {fid[0], fid[1], fid[2], nat_row};
  for (std::size_t i = 0; i < 4; ++i) {
    const FidelityRow& r = all_fid[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"scenario\": \"%s\", \"metric\": \"%s\", "
                  "\"exact\": %.17g, \"fluid\": %.17g, "
                  "\"divergence_pct\": %.17g}%s\n",
                  r.scenario, r.metric, r.exact, r.fluid, r.divergence_pct(),
                  i + 1 < 4 ? "," : "");
    json << buf;
  }
  std::snprintf(buf, sizeof buf, "  ],\n  \"max_divergence_pct\": %.17g,\n",
                max_div);
  json << buf;
  auto nat_json = [&](const char* key, const NationalStats& n,
                      const NationalConfig& cfg, bool last) {
    std::snprintf(
        buf, sizeof buf,
        "  \"%s\": {\"sites\": %d, \"hosts\": %zu, \"links\": %zu, "
        "\"flows\": %llu, \"datagrams_delivered\": %llu, \"drops\": %llu, "
        "\"completed\": %s, \"events\": %llu, "
        "\"stream_hash\": \"0x%016llx\", \"makespan_s\": %.17g",
        key, cfg.sites, n.hosts, n.links,
        static_cast<unsigned long long>(cfg.flows),
        static_cast<unsigned long long>(n.delivered),
        static_cast<unsigned long long>(n.drops),
        n.completed ? "true" : "false",
        static_cast<unsigned long long>(n.events),
        static_cast<unsigned long long>(n.hash), n.makespan_s);
    json << buf;
    // Periodic (simulated time, stream hash) samples: when two runs of this
    // artifact differ, tools/determinism_gate.py reports the first diverging
    // checkpoint, bounding the divergence to one simulated-time window.
    json << ", \"hash_checkpoints\": [";
    for (std::size_t i = 0; i < n.hash_checkpoints.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s{\"t_s\": %.17g, \"hash\": \"0x%016llx\"}",
                    i == 0 ? "" : ", ", n.hash_checkpoints[i].first,
                    static_cast<unsigned long long>(
                        n.hash_checkpoints[i].second));
      json << buf;
    }
    json << "]";
    if (!replay) {
      std::snprintf(buf, sizeof buf,
                    ", \"wall_s\": %.17g, \"events_per_s\": %.17g",
                    n.wall_s, static_cast<double>(n.events) / n.wall_s);
      json << buf;
    }
    json << (last ? "}\n" : "},\n");
  };
  nat_json("national_exact", nat_exact, exact_cfg, false);
  nat_json("national_hybrid", nat_hybrid, hybrid_cfg, true);
  json << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool replay = false;
  bool quick = false;
  gtw::bench::parse_flags(argc, argv,
                          {{"--replay", &replay}, {"--quick", &quick}});
  print_des_speed(replay, quick);
  return 0;
}
