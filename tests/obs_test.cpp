// Observability layer: registry semantics (collisions, stable ordering),
// DES-clock sampling, Chrome trace export (golden files + >65k-event
// stress), and the guarantee that instrumentation never perturbs the
// simulation it observes.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "des/scheduler.hpp"
#include "net/atm.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "net/units.hpp"
#include "obs/exporter.hpp"
#include "obs/instrument.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "trace/trace.hpp"

#ifndef GTW_GOLDEN_DIR
#define GTW_GOLDEN_DIR "tests/golden"
#endif

namespace gtw {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(GTW_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- registry

TEST(ObsRegistryTest, NameCollisionAcrossKindsThrows) {
  obs::Registry reg;
  reg.probe_counter("x", [] { return std::uint64_t{0}; });
  EXPECT_THROW(reg.probe_counter("x", [] { return std::uint64_t{1}; }),
               std::logic_error);  // same kind: still a wiring bug
  EXPECT_THROW(reg.probe_gauge("x", [] { return 1.0; }), std::logic_error);

  reg.probe_gauge("p", [] { return 1.0; });
  EXPECT_THROW(reg.probe_gauge("p", [] { return 2.0; }), std::logic_error);
  EXPECT_THROW(reg.probe_counter("p", [] { return std::uint64_t{0}; }),
               std::logic_error);
  EXPECT_THROW(reg.probe_counter("", [] { return std::uint64_t{0}; }),
               std::logic_error);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_DOUBLE_EQ(reg.read("x"), 0.0);  // the first registration stands
  EXPECT_DOUBLE_EQ(reg.read("p"), 1.0);
}

TEST(ObsRegistryTest, SnapshotIsLexicographicallyOrderedAndStable) {
  obs::Registry reg;
  // Deliberately defined out of order.
  reg.probe_counter("net.link.z.tx", [] { return std::uint64_t{1}; });
  reg.probe_gauge("fire.stage.a.occupancy", [] { return 0.5; });
  reg.probe_counter("net.link.a.tx", [] { return std::uint64_t{2}; });
  reg.probe_counter("meta.comm.messages", [] { return std::uint64_t{7}; });

  std::vector<std::string> names;
  for (const auto& s : reg.snapshot()) names.push_back(s.name);
  const std::vector<std::string> expect = {
      "fire.stage.a.occupancy", "meta.comm.messages", "net.link.a.tx",
      "net.link.z.tx"};
  EXPECT_EQ(names, expect);

  // A second snapshot yields the identical order (stable exports).
  std::vector<std::string> names2;
  for (const auto& s : reg.snapshot()) names2.push_back(s.name);
  EXPECT_EQ(names, names2);
}

TEST(ObsRegistryTest, ProbesAreEvaluatedAtReadTime) {
  obs::Registry reg;
  std::uint64_t v = 1;
  reg.probe_counter("live", [&v] { return v; });
  EXPECT_DOUBLE_EQ(reg.read("live"), 1.0);
  v = 42;
  EXPECT_DOUBLE_EQ(reg.read("live"), 42.0);
  EXPECT_THROW(reg.read("unknown"), std::out_of_range);
}

// ----------------------------------------------------------------- sampler

TEST(ObsSamplerTest, SamplesOnTheDesClock) {
  des::Scheduler sched;
  obs::Registry reg;
  std::uint64_t work = 0;
  reg.probe_counter("work.done", [&work] { return work; });
  for (int i = 1; i <= 10; ++i)
    sched.schedule_at(des::SimTime::milliseconds(10 * i),
                      [&work] { ++work; });

  obs::TimeSeriesSampler sampler(sched, reg);
  sampler.watch("work.done");
  EXPECT_THROW(sampler.watch("no.such"), std::out_of_range);
  sampler.sample_every(des::SimTime::milliseconds(25),
                       des::SimTime::milliseconds(100));
  sched.run();

  const auto& series = sampler.series();
  ASSERT_EQ(series.size(), 1u);
  // t = 0, 25, 50, 75, 100 ms -> 0, 2, 5, 7, 10 events done.
  const std::vector<std::pair<std::int64_t, double>> expect = {
      {0, 0.0},
      {25'000'000'000, 2.0},
      {50'000'000'000, 5.0},
      {75'000'000'000, 7.0},
      {100'000'000'000, 10.0}};
  EXPECT_EQ(series[0].points, expect);
  EXPECT_EQ(sampler.samples_taken(), 5u);
}

// ------------------------------------------------------------- tcp fixture

// Two hosts across one ATM switch (same shape as net_tcp_test's fixture);
// the egress toward b is the bottleneck.
struct TcpFixture {
  des::Scheduler sched;
  net::Host a;
  net::Host b;
  net::AtmSwitch sw;
  net::AtmNic nic_a;
  net::AtmNic nic_b;
  net::VcAllocator vcs;
  int pa = -1, pb = -1;

  TcpFixture()
      : a(sched, "a", 1), b(sched, "b", 2), sw(sched, "sw"),
        nic_a(sched, a, "a.atm",
              net::Link::Config{units::BitRate::mbps(622.0),
                                des::SimTime::microseconds(250),
                                units::Bytes{16u << 20}, des::SimTime::zero()},
              net::kMtuAtmDefault),
        nic_b(sched, b, "b.atm",
              net::Link::Config{units::BitRate::mbps(622.0),
                                des::SimTime::microseconds(250),
                                units::Bytes{16u << 20}, des::SimTime::zero()},
              net::kMtuAtmDefault) {
    pa = sw.add_port(net::Link::Config{units::BitRate::mbps(622.0),
                                       des::SimTime::microseconds(250),
                                       units::Bytes{16u << 20},
                                       des::SimTime::zero()});
    pb = sw.add_port(net::Link::Config{units::BitRate::mbps(155.0),
                                       des::SimTime::microseconds(250),
                                       units::Bytes{4u << 20},
                                       des::SimTime::zero()});
    nic_a.uplink().set_sink(sw.ingress(pa));
    nic_b.uplink().set_sink(sw.ingress(pb));
    sw.connect_egress(pa, nic_a.ingress());
    sw.connect_egress(pb, nic_b.ingress());
    vcs.provision(nic_a, nic_b, {{&sw, pa, pb}});
    a.add_route(2, &nic_a, 2);
    b.add_route(1, &nic_b, 1);
  }

  // Drop exactly the n-th MTU-sized data frame leaving a toward the switch.
  void drop_nth_data_frame(int n) {
    net::FrameSink pass = sw.ingress(pa);
    auto count = std::make_shared<int>(0);
    nic_a.uplink().set_sink([pass, count, n](net::Frame fr) {
      if (fr.wire_bytes > 1000 && ++*count == n) return;
      pass(std::move(fr));
    });
  }
};

// The sampled cwnd trajectory must be exactly the Reno trace the connection
// itself reports — probe-path and direct-path reads agree at every sample
// point, and the multiplicative decrease after a fast retransmit shows up.
TEST(ObsTcpInstrumentationTest, CwndSamplesMatchRenoTrace) {
  TcpFixture f;
  net::TcpConnection conn(f.a, f.b, 100, 200);
  obs::Registry reg;
  obs::instrument_tcp(reg, conn, "c");

  obs::TimeSeriesSampler sampler(f.sched, reg);
  sampler.watch("tcp.c.0.cwnd_bytes");
  sampler.watch("tcp.c.0.ssthresh_bytes");
  const des::SimTime period = des::SimTime::milliseconds(5);
  const des::SimTime until = des::SimTime::seconds(2);
  sampler.sample_every(period, until);

  // Reference Reno trace, recorded independently of the registry at the
  // same instants (ties resolve in insertion order; both reads are pure).
  auto reference = std::make_shared<std::vector<double>>();
  for (des::SimTime t = des::SimTime::zero(); t <= until; t += period)
    f.sched.schedule_at(t, [&conn, reference] {
      reference->push_back(conn.stats(0).cwnd_bytes);
    });

  f.drop_nth_data_frame(30);  // one loss -> 3 dup ACKs -> fast retransmit
  bool delivered = false;
  conn.send(0, units::Bytes{6u << 20}, {},
            [&](const std::any&, des::SimTime) { delivered = true; });
  f.sched.run();
  ASSERT_TRUE(delivered);

  const auto& cwnd = sampler.series()[0].points;
  ASSERT_EQ(cwnd.size(), reference->size());
  for (std::size_t i = 0; i < cwnd.size(); ++i)
    EXPECT_DOUBLE_EQ(cwnd[i].second, (*reference)[i]) << "sample " << i;

  // The loss actually exercised Reno: duplicate ACKs counted, one fast
  // retransmit, and a visible multiplicative decrease in the trajectory.
  const auto stats = conn.stats(0);
  EXPECT_GE(stats.dup_acks, 3u);
  EXPECT_EQ(stats.fast_retransmits, 1u);
  EXPECT_GE(stats.retransmits, 1u);
  bool decreased = false;
  for (std::size_t i = 1; i < cwnd.size(); ++i)
    if (cwnd[i].second < cwnd[i - 1].second) decreased = true;
  EXPECT_TRUE(decreased);
  // Final probe reads agree with the connection's own accounting.
  EXPECT_DOUBLE_EQ(reg.read("tcp.c.0.fast_retransmits"), 1.0);
  EXPECT_DOUBLE_EQ(reg.read("tcp.c.0.dup_acks"),
                   static_cast<double>(stats.dup_acks));
  EXPECT_GT(reg.read("tcp.c.0.ssthresh_bytes"), 0.0);
  EXPECT_GT(reg.read("tcp.c.0.rto_ms"), 0.0);
}

// Attaching the full instrumentation + a periodic sampler must not change
// a single simulation outcome (read-only probes; sampler events do not
// shift other events).
TEST(ObsTcpInstrumentationTest, InstrumentationDoesNotPerturbSimulation) {
  auto run = [](bool instrumented) {
    TcpFixture f;
    net::TcpConnection conn(f.a, f.b, 100, 200);
    obs::Registry reg;
    obs::TimeSeriesSampler sampler(f.sched, reg);
    if (instrumented) {
      obs::instrument_tcp(reg, conn, "c");
      obs::instrument_host(reg, f.a);
      obs::instrument_host(reg, f.b);
      obs::instrument_atm_switch(reg, f.sw);
      sampler.watch("tcp.c.0.cwnd_bytes");
      sampler.sample_every(des::SimTime::milliseconds(1),
                           des::SimTime::seconds(2));
    }
    f.drop_nth_data_frame(30);
    des::SimTime done;
    conn.send(0, units::Bytes{6u << 20}, {},
              [&](const std::any&, des::SimTime t) { done = t; });
    f.sched.run();
    return std::make_pair(done, conn.stats(0).segments_sent);
  };
  EXPECT_EQ(run(false), run(true));
}

// attach_fault_plan probes the plan's own transition counts: the totals
// exist (as zeros) before any fault fires, and a kind's pair appears only
// once that kind first begins.
TEST(ObsFaultPlanTest, ProbesReadThePlansTransitionCounts) {
  TcpFixture f;
  net::FaultPlan plan(f.sched);
  obs::Registry reg;
  obs::attach_fault_plan(reg, plan);
  plan.link_down(f.sw.egress_link(f.pb), des::SimTime::milliseconds(10),
                 des::SimTime::milliseconds(30));
  plan.host_outage(f.b, des::SimTime::milliseconds(100),
                   des::SimTime::milliseconds(20));

  EXPECT_DOUBLE_EQ(reg.read("fault.begins"), 0.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.ends"), 0.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.active"), 0.0);
  EXPECT_EQ(reg.size(), 3u);

  f.sched.run(des::SimTime::milliseconds(20));  // link down, host still up
  EXPECT_DOUBLE_EQ(reg.read("fault.begins"), 1.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.active"), 1.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.link_down.begins"), 1.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.link_down.ends"), 0.0);
  EXPECT_FALSE(reg.contains("fault.host_outage.begins"));
  EXPECT_FALSE(reg.contains("fault.ber_burst.begins"));

  f.sched.run();
  EXPECT_DOUBLE_EQ(reg.read("fault.begins"), 2.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.ends"), 2.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.active"), 0.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.link_down.ends"), 1.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.host_outage.begins"), 1.0);
  EXPECT_DOUBLE_EQ(reg.read("fault.host_outage.ends"), 1.0);
  EXPECT_FALSE(reg.contains("fault.ber_burst.begins"));
  EXPECT_EQ(reg.size(), 7u);
  ASSERT_EQ(reg.marks().size(), 4u);
  EXPECT_EQ(reg.marks()[0].name, "fault.link_down.sw.port1");
}

// --------------------------------------------------------------- exporters

TEST(ObsChromeExportTest, EmptyTraceMatchesGolden) {
  trace::TraceRecorder rec(1);
  std::ostringstream os;
  obs::write_chrome_trace(os, rec);
  EXPECT_EQ(os.str(), read_golden("chrome_empty.json")) << os.str();
}

TEST(ObsChromeExportTest, SmallTraceMatchesGolden) {
  trace::TraceRecorder rec(2);
  const std::uint32_t compute = rec.define_state("compute");
  rec.enter(0, compute, des::SimTime::milliseconds(1));
  rec.send(0, 1, 7, units::Bytes{4096}, des::SimTime::milliseconds(2));
  rec.leave(0, compute, des::SimTime::milliseconds(2));
  rec.enter(1, compute, des::SimTime::microseconds(2500));
  // Sub-microsecond timestamp: exercises the exact integer ts formatting.
  rec.recv(1, 0, 7, units::Bytes{4096},
           des::SimTime::picoseconds(2'500'000'001));
  rec.leave(1, compute, des::SimTime::milliseconds(4));

  std::ostringstream os;
  obs::write_chrome_trace(os, rec);
  EXPECT_EQ(os.str(), read_golden("chrome_small.json")) << os.str();
}

TEST(ObsChromeExportTest, MetricsJsonMatchesGolden) {
  obs::Registry reg;
  reg.probe_counter("net.link.wan.tx_bytes",
                    [] { return std::uint64_t{123456789}; });
  // Exactly-representable double so the %.17g golden is portable.
  reg.probe_gauge("net.link.wan.utilization", [] { return 0.640625; });
  reg.mark("fault.link_down.wan", des::SimTime::seconds(15), true);
  reg.mark("fault.link_down.wan", des::SimTime::seconds(17), false);

  std::ostringstream os;
  obs::write_metrics_json(os, reg, "golden");
  EXPECT_EQ(os.str(), read_golden("metrics_small.json")) << os.str();
}

// Traces beyond 65k events must export with unique flow ids and stay
// byte-deterministic (a 16-bit id counter would silently wrap here).
TEST(ObsChromeExportTest, LargeTraceExportsAllEventsDeterministically) {
  const int kPairs = 16'500;  // 4 events each -> 66'000 events
  trace::TraceRecorder rec(2);
  const std::uint32_t st = rec.define_state("work");
  for (int i = 0; i < kPairs; ++i) {
    const des::SimTime t = des::SimTime::microseconds(10 * i);
    rec.enter(0, st, t);
    rec.send(0, 1, 1, units::Bytes{64}, t);
    rec.recv(1, 0, 1, units::Bytes{64}, t + des::SimTime::microseconds(5));
    rec.leave(0, st, t + des::SimTime::microseconds(5));
  }
  ASSERT_GT(rec.events().size(), 65'536u);

  std::ostringstream os1, os2;
  obs::write_chrome_trace(os1, rec);
  obs::write_chrome_trace(os2, rec);
  const std::string json = os1.str();
  EXPECT_EQ(json, os2.str());  // byte-identical double export

  auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), static_cast<std::size_t>(kPairs));
  EXPECT_EQ(count("\"ph\":\"E\""), static_cast<std::size_t>(kPairs));
  EXPECT_EQ(count("\"ph\":\"s\""), static_cast<std::size_t>(kPairs));
  EXPECT_EQ(count("\"ph\":\"f\""), static_cast<std::size_t>(kPairs));
  // The last flow pair carries the id of the 16'500th send: no wrap.
  EXPECT_NE(json.find("\"id\":16500,"), std::string::npos);
}

TEST(ObsSeriesExportTest, SeriesJsonIsStable) {
  des::Scheduler sched;
  obs::Registry reg;
  std::uint64_t n = 0;
  reg.probe_counter("n", [&n] { return n; });
  obs::TimeSeriesSampler sampler(sched, reg);
  sampler.watch("n");
  sched.schedule_at(des::SimTime::milliseconds(1), [&n] { n = 3; });
  sampler.sample_every(des::SimTime::milliseconds(2),
                       des::SimTime::milliseconds(4));
  sched.run();

  std::ostringstream js;
  obs::write_series_json(js, sampler);
  EXPECT_EQ(js.str(),
            "{\n  \"series\": [\n    {\"name\": \"n\", \"points\": "
            "[[0, 0], [2000000000, 3], [4000000000, 3]]}\n  ]\n}\n");
}

}  // namespace
}  // namespace gtw
