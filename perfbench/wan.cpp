// wan_transport: the m3 sweep, 2 RTTs x {clean, loss, outage, loss_outage}
// x {single, multi4, multi8, multi8_paced}, each case a 128 MB
// Metacomputer::wan_send from the Juelich to the GMD gateway through the
// testbed.  wan_traced: the loss_outage/multi8/100 km case with an
// obs::SpanTracer attached and every span layer on.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "des/random.hpp"
#include "meta/metacomputer.hpp"
#include "meta/path_transport.hpp"
#include "net/fault.hpp"
#include "obs/span.hpp"
#include "reference.hpp"
#include "testbed/testbed.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gtw;

constexpr std::uint64_t kTransferBytes = 128u << 20;
constexpr double kLossBer = 1.3e-7;  // the m3 sustained-loss rate
constexpr double kBerAtS = 0.001;
constexpr double kOutageAtS = 0.5;
constexpr double kOutageForS = 8.0;
// The seed shifts both fault onsets by up to this much: it changes where
// in the transfer the faults land, not the fault scenario itself.
constexpr std::uint64_t kOnsetJitterPs = 1'000'000'000;  // 1 ms

constexpr const char* kSchedules[] = {"clean", "loss", "outage",
                                      "loss_outage"};
constexpr const char* kConfigs[] = {"single", "multi4", "multi8",
                                    "multi8_paced"};
constexpr double kDistancesKm[] = {100.0, 1000.0};
// Sweep position of 100km/loss_outage/multi8, so wan_traced draws the same
// fault onsets as that wan_transport case.
constexpr std::uint64_t kTracedIndex = 14;

meta::PathConfig path_config(std::string_view config,
                             const testbed::Testbed& tb) {
  meta::PathConfig pc;
  pc.tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  pc.tcp.recv_buffer = units::Bytes{4u << 20};
  if (config == "single") return pc;  // pass-through: one TCP connection
  pc.streams = config == "multi4" ? 4 : 8;
  pc.chunk_bytes = units::Bytes{256u << 10};
  pc.stream_window = units::Bytes{2u << 20};
  pc.chunk_timeout = des::SimTime::milliseconds(400);
  pc.adapt_interval = des::SimTime::milliseconds(500);
  pc.min_streams = 2;
  if (config == "multi8_paced") {
    pc.pace_rate = units::BitRate::mbps(70.0);
    pc.pace_burst = pc.chunk_bytes;
  }
  return pc;
}

std::string case_name(double km, std::string_view schedule,
                      std::string_view config) {
  return std::to_string(static_cast<int>(km)) + "km/" + std::string(schedule) +
         "/" + std::string(config);
}

const WanReference* reference(const std::string& name) {
  for (const WanReference& r : kRefWanGoodputMbps)
    if (name == r.name) return &r;
  return nullptr;
}

// Per-layer counts summed over the cases of one run.
struct Counts {
  std::uint64_t events = 0, pool_hw = 0, overflow_hw = 0;
  LinkCounts links;
  std::uint64_t segments = 0, retransmits = 0, timeouts = 0;
  std::uint64_t chunks = 0, resends = 0, resets = 0, duplicates = 0;
  std::uint64_t spans = 0, span_bytes = 0;
};

// Runs one case (`index` salts its fault-onset draws) and counts it as one
// operation, failed if any of its checks failed.
void run_case(double km, std::string_view schedule, std::string_view config,
              std::uint64_t seed, std::uint64_t index, bool obs_spans,
              PhaseClock& clock, Result& res, Counts& c) {
  const std::string name = case_name(km, schedule, config);
  clock.setup_begin();
  testbed::TestbedOptions opts;
  opts.distance_km = km;
  std::unique_ptr<testbed::Testbed> tb;
  {
    const Span span(Layer::kTestbedBuild);
    tb = std::make_unique<testbed::Testbed>(opts);
  }
  des::Scheduler& sched = tb->scheduler();
  meta::Metacomputer mc{sched};
  meta::MachineSpec a;
  a.name = "JUELICH";
  a.frontend = &tb->gw_o200();
  meta::MachineSpec b;
  b.name = "GMD";
  b.frontend = &tb->gw_e5000();
  const int ma = mc.add_machine(a);
  const int mb = mc.add_machine(b);
  mc.link_machines(ma, mb, path_config(config, *tb), 7000);
  meta::PathTransport& path = *mc.wan_path(ma, mb);

  des::Rng rng{mix_seed(seed, 100 + index)};
  const auto jitter = [&rng] {
    return des::SimTime::picoseconds(
        static_cast<std::int64_t>(rng.uniform_int(kOnsetJitterPs)));
  };
  net::FaultPlan plan(sched);
  if (schedule == "loss" || schedule == "loss_outage")
    plan.ber_burst(tb->wan_link_j_to_g(),
                   des::SimTime::seconds(kBerAtS) + jitter(),
                   des::SimTime::seconds(300), kLossBer);
  if (schedule == "outage" || schedule == "loss_outage")
    plan.link_down(tb->wan_link_j_to_g(),
                   des::SimTime::seconds(kOutageAtS) + jitter(),
                   des::SimTime::seconds(kOutageForS));

  obs::SpanTracer spans;
  if (obs_spans) sched.set_span_hook(&spans);

  int deliveries = 0;
  des::SimTime done = des::SimTime::zero();
  {
    const Span span(Layer::kMetaWanSend);
    mc.wan_send(ma, mb, units::Bytes{kTransferBytes}, [&] {
      ++deliveries;
      done = sched.now();
    });
  }
  clock.timed_begin();
  run_steps(sched);
  if (obs_spans) {
    // Serialising the spans to memory is the end of a traced run, so it
    // belongs to the timed phase.
    std::ostringstream out;
    {
      const Span span(Layer::kObsWrite);
      spans.write_json(out, "perfbench wan_traced " + name);
    }
    c.spans += spans.spans().size();
    c.span_bytes += static_cast<std::uint64_t>(out.tellp());
  }
  clock.timed_end();
  sched.set_span_hook(nullptr);

  const meta::PathTransport::Stats& st = path.stats(0);
  c.events += sched.events_executed();
  c.pool_hw = std::max<std::uint64_t>(c.pool_hw, sched.pool_high_water());
  c.overflow_hw =
      std::max<std::uint64_t>(c.overflow_hw, sched.overflow_high_water());
  c.links.add(*tb);
  // The sending gateway carries nothing but this transfer's data segments.
  c.segments += tb->gw_o200().packets_sent();
  for (int s = 0; s < path.stream_count(); ++s) {
    const auto ss = path.stream_stats(0, s);
    c.retransmits += ss.tcp_retransmits;
    c.timeouts += ss.tcp_timeouts;
  }
  c.chunks += st.chunks;
  c.resends += st.chunk_resends;
  c.resets += st.stream_resets;
  c.duplicates += st.duplicate_chunks;
  fold_hash(res.stream_hash, sched.stream_hash());

  const double goodput_mbps =
      done > des::SimTime::zero()
          ? static_cast<double>(kTransferBytes) * 8.0 / done.sec() / 1e6
          : 0.0;
  res.figures[name + " goodput_mbps"] = goodput_mbps;
  const WanReference* ref = reference(name);
  bool ok = res.check(deliveries == 1,
                      name + ": delivered " + std::to_string(deliveries) +
                          " times, expected once");
  ok = res.check(st.delivered_messages == 1 &&
                     st.delivered_bytes == st.bytes &&
                     st.bytes == mc.wan_bytes(),
                 name + ": delivered " + std::to_string(st.delivered_bytes) +
                     " of " + std::to_string(mc.wan_bytes()) + " bytes") &&
       ok;
  ok = res.check(path.undispatched_chunks(0) == 0 &&
                     path.outstanding_chunks(0) == 0 &&
                     path.inflight_messages(0) == 0,
                 name + ": chunks left in the transport at drain") &&
       ok;
  if (ref == nullptr) {
    ok = res.check(false, name + ": no reference goodput");
  } else if (!ref->seed_sensitive || seed == kDefaultSeed) {
    ok = res.check(within_pct(goodput_mbps, ref->mbps, kFidelityPct),
                   name + ": goodput " + std::to_string(goodput_mbps) +
                       " Mbit/s off the reference " +
                       std::to_string(ref->mbps) + " by >1%") &&
         ok;
  }
  ++res.ops;
  if (!ok) ++res.failed_ops;
}

void publish(const Counts& c, Result& res) {
  res.events = c.events;
  res.layer["des.pool_high_water"] = static_cast<double>(c.pool_hw);
  res.layer["des.overflow_high_water"] = static_cast<double>(c.overflow_hw);
  c.links.publish(res);
  res.layer["net.tcp.segments"] = static_cast<double>(c.segments);
  res.layer["net.tcp.retransmits"] = static_cast<double>(c.retransmits);
  res.layer["net.tcp.timeouts"] = static_cast<double>(c.timeouts);
  // Useful segments over segments sent, retransmissions included.
  res.layer["net.tcp.goodput_ratio"] =
      c.segments == 0 ? 0.0
                      : static_cast<double>(c.segments - c.retransmits) /
                            static_cast<double>(c.segments);
  res.layer["meta.path.chunks"] = static_cast<double>(c.chunks);
  res.layer["meta.path.chunk_resends"] = static_cast<double>(c.resends);
  res.layer["meta.path.stream_resets"] = static_cast<double>(c.resets);
  res.layer["meta.path.duplicate_chunks"] = static_cast<double>(c.duplicates);
  // Chunks delivered once over chunk dispatches, re-issues included.
  res.layer["meta.path.useful_ratio"] =
      c.chunks == 0 ? 0.0
                    : static_cast<double>(c.chunks) /
                          static_cast<double>(c.chunks + c.resends);
  res.layer["obs.spans"] = static_cast<double>(c.spans);
  res.layer["obs.span_bytes"] = static_cast<double>(c.span_bytes);
}

}  // namespace

Result run_wan_transport(std::uint64_t seed) {
  Result res;
  res.stream_hash = kFnvOffset;
  PhaseClock clock;
  Counts c;
  std::uint64_t index = 0;
  for (const double km : kDistancesKm)
    for (const char* schedule : kSchedules)
      for (const char* config : kConfigs)
        run_case(km, schedule, config, seed, index++, false, clock, res, c);
  clock.add_to(res);
  publish(c, res);
  return res;
}

Result run_wan_traced(std::uint64_t seed, bool untraced_twin) {
  Result res;
  res.stream_hash = kFnvOffset;
  PhaseClock clock;
  Counts c;
  run_case(100.0, "loss_outage", "multi8", seed, kTracedIndex, true, clock,
           res, c);
  clock.add_to(res);
  publish(c, res);
  if (untraced_twin) {
    // The same case with the span hook null, outside every recorded phase:
    // the allocation difference per event is the obs layer's own.
    SpanRecorder* const rec = g_recorder;
    g_recorder = nullptr;
    Result twin;
    PhaseClock twin_clock;
    Counts tc;
    run_case(100.0, "loss_outage", "multi8", seed, kTracedIndex, false,
             twin_clock, twin, tc);
    twin_clock.add_to(twin);
    g_recorder = rec;
    res.layer["obs.allocs_per_event"] =
        tc.events == 0 ? 0.0
                       : (static_cast<double>(res.heap_allocs) -
                          static_cast<double>(twin.heap_allocs)) /
                             static_cast<double>(tc.events);
    for (const std::string& f : twin.failures) res.failures.push_back(f);
    res.failed_ops += twin.failed_ops;
  }
  return res;
}

}  // namespace perfbench
