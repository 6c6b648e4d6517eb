#include "check/attach.hpp"

#include <cstdarg>
#include <cstdio>
#include <utility>
#include <vector>

namespace gtw::check {
namespace {

std::string fmt(const char* f, ...) {
  char buf[192];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

}  // namespace

// --- scheduler --------------------------------------------------------------

void SchedulerChecker::on_schedule(des::SimTime when, des::SimTime now,
                                   std::uint64_t seq) {
  if (when < now) {
    mon_.violation("des.sched.past-schedule",
                   fmt("event seq=%llu scheduled for t=%.9fs, %.3fus before "
                       "now — the compiled-out assert class",
                       static_cast<unsigned long long>(seq), when.sec(),
                       (now - when).us()));
  }
}

void SchedulerChecker::on_fire(des::SimTime when, std::uint64_t seq) {
  if (fired_any_ && when < last_fire_) {
    mon_.violation("des.sched.monotonic-fire",
                   fmt("event seq=%llu fired at t=%.9fs after an event at "
                       "t=%.9fs — dispatch went backwards",
                       static_cast<unsigned long long>(seq), when.sec(),
                       last_fire_.sec()));
  }
  last_fire_ = when;
  fired_any_ = true;
  mon_.note(fmt("fire seq=%llu", static_cast<unsigned long long>(seq)));
}

void SchedulerChecker::on_cancel(std::uint64_t seq, CancelOutcome outcome) {
  switch (outcome) {
    case CancelOutcome::kCancelled:
      mon_.note(fmt("cancel seq=%llu", static_cast<unsigned long long>(seq)));
      break;
    case CancelOutcome::kStale:
      // Cancelling an already-fired or recycled event is a documented
      // no-op (pace timers, defensive teardown); count, don't flag.
      ++stale_cancels_;
      break;
    case CancelOutcome::kDouble:
      mon_.violation("des.sched.double-cancel",
                     fmt("event seq=%llu cancelled twice through the same "
                         "generation — a stale handle copy is being reused",
                         static_cast<unsigned long long>(seq)));
      break;
  }
}

SchedulerChecker& attach_scheduler(Monitor& mon, des::Scheduler& sched) {
  auto& checker = mon.make_checker<SchedulerChecker>(mon);
  sched.set_check_hook(&checker);
  mon.add_invariant(
      "des.pool.census", [&sched]() -> std::optional<std::string> {
        const std::size_t expect =
            sched.live_events() + sched.cancelled_entries();
        if (sched.pool_in_use() == expect) return std::nullopt;
        return fmt("event records in use (%zu) != live (%zu) + tombstones "
                   "(%zu) — a record leaked or was freed while queued",
                   sched.pool_in_use(), sched.live_events(),
                   sched.cancelled_entries());
      });
#if defined(GTW_CHECK)
  mon.add_invariant(
      "des.pool.double-free", [&sched]() -> std::optional<std::string> {
        if (sched.pool_double_frees() == 0) return std::nullopt;
        return fmt("%llu double-free(s) in the event pool",
                   static_cast<unsigned long long>(
                       sched.pool_double_frees()));
      });
#endif
  return checker;
}

// --- net --------------------------------------------------------------------

namespace {

LinkAccounts snapshot_link(const net::Link& link) {
  LinkAccounts a;
  a.submitted_frames = link.submitted_frames();
  a.submitted_bytes = link.submitted_bytes();
  a.sent_frames = link.frames_sent();
  a.sent_bytes = link.bytes_sent();
  a.dropped_frames = link.drops();
  a.dropped_bytes = link.dropped_bytes();
  a.outage_dropped_frames = link.outage_drops();
  a.outage_dropped_bytes = link.outage_dropped_bytes();
  a.queued_frames = link.queue_frames();
  a.queued_bytes = link.queue_bytes();
  return a;
}

}  // namespace

void attach_link(Monitor& mon, const net::Link& link,
                 const std::string& name) {
  const std::string id = "net.link." + (name.empty() ? link.name() : name);
  mon.add_invariant(id + ".bytes",
                    [&link]() -> std::optional<std::string> {
                      return link_conservation(snapshot_link(link));
                    });
  mon.add_drain_check(id + ".drain",
                      [&link]() -> std::optional<std::string> {
                        return link_drained(snapshot_link(link));
                      });
  if (link.fidelity() == net::LinkFidelity::kFluid) {
    mon.add_drain_check(id + ".burst-pool",
                        [&link]() -> std::optional<std::string> {
                          if (link.burst_pool_in_use() == 0)
                            return std::nullopt;
                          return fmt("%zu burst record(s) still live at "
                                     "drain",
                                     link.burst_pool_in_use());
                        });
  }
}

void attach_host(Monitor& mon, const net::Host& host) {
  const std::string id = "net.host." + host.name();
  mon.add_drain_check(id + ".recv", [&host]() -> std::optional<std::string> {
    HostAccounts a;
    a.nic_arrivals = host.nic_arrivals();
    a.received = host.packets_received();
    a.forwarded = host.packets_forwarded();
    a.recv_unroutable = host.recv_unroutable_drops();
    a.recv_outage_drops = host.recv_outage_drops();
    a.reassembly_pending = host.reassembly_pending();
    return host_drained(a);
  });
}

void attach_atm_switch(Monitor& mon, const net::AtmSwitch& sw) {
  const std::string id = "net.atm." + sw.name();
  mon.add_drain_check(id + ".fabric",
                      [&sw]() -> std::optional<std::string> {
                        SwitchAccounts a;
                        a.ingress_frames = sw.ingress_frames();
                        a.unroutable_frames = sw.unroutable_drops();
                        for (int p = 0; p < sw.port_count(); ++p) {
                          a.egress_submitted_frames +=
                              sw.egress_link(p).submitted_frames();
                        }
                        return switch_drained(a);
                      });
  for (int p = 0; p < sw.port_count(); ++p) {
    attach_link(mon, sw.egress_link(p),
                sw.name() + ".port" + std::to_string(p));
  }
}

namespace {

TcpSeqAccounts snapshot_tcp(const net::TcpConnection& conn, int side) {
  const net::TcpConnection::SeqState s = conn.seq_state(side);
  TcpSeqAccounts a;
  a.snd_una = s.snd_una;
  a.snd_nxt = s.snd_nxt;
  a.snd_max = s.snd_max;
  a.snd_end = s.snd_end;
  a.ooo_buffered = s.ooo_buffered;
  a.cwnd = s.cwnd;
  a.mss = conn.config().mss.count();
  a.recv_buffer = conn.config().recv_buffer.count();
  return a;
}

}  // namespace

void attach_tcp(Monitor& mon, const net::TcpConnection& conn,
                const std::string& name, bool expect_complete) {
  for (int side = 0; side < 2; ++side) {
    const std::string id =
        "tcp." + name + ".side" + std::to_string(side);
    mon.add_invariant(id + ".seq",
                      [&conn, side]() -> std::optional<std::string> {
                        return tcp_sequence_sanity(snapshot_tcp(conn, side));
                      });
    if (expect_complete) {
      mon.add_drain_check(id + ".drain",
                          [&conn, side]() -> std::optional<std::string> {
                            return tcp_drained(snapshot_tcp(conn, side));
                          });
    }
  }
}

// --- meta -------------------------------------------------------------------

namespace {

WanAccounts snapshot_wan(const meta::Communicator& comm) {
  const meta::Communicator::ReliabilityStats& r = comm.reliability();
  WanAccounts a;
  a.guarded = r.wan_guarded;
  a.copies = r.wan_copies;
  a.delivered = r.wan_delivered;
  a.duplicates = r.duplicates_suppressed;
  a.dropped_after_unreachable = r.dropped_after_unreachable;
  a.unreachable_reports = r.unreachable_reports;
  return a;
}

PathAccounts snapshot_path(const meta::PathTransport& path, int side) {
  const meta::PathTransport::Stats& st = path.stats(side);
  PathAccounts a;
  a.messages = st.messages;
  a.delivered_messages = st.delivered_messages;
  a.bytes = st.bytes;
  a.delivered_bytes = st.delivered_bytes;
  a.reassembly_bytes = st.reassembly_bytes;
  a.undispatched_chunks = path.undispatched_chunks(side);
  a.outstanding_chunks = path.outstanding_chunks(side);
  a.inflight_messages = path.inflight_messages(side);
  a.chunks_created = st.chunks_created;
  a.chunks_landed = st.chunks_landed;
  a.chunk_resends = st.chunk_resends;
  a.duplicate_chunks = st.duplicate_chunks;
  return a;
}

}  // namespace

void attach_communicator(Monitor& mon, meta::Communicator& comm,
                         const std::string& name) {
  const std::string id = "meta." + name;
  mon.add_invariant(id + ".wan-outcome",
                    [&comm]() -> std::optional<std::string> {
                      return wan_outcomes(snapshot_wan(comm));
                    });
  mon.add_invariant(id + ".verdict",
                    [&comm]() -> std::optional<std::string> {
                      return wan_verdicts(snapshot_wan(comm), false);
                    });
  mon.add_drain_check(id + ".verdict",
                      [&comm]() -> std::optional<std::string> {
                        return wan_verdicts(snapshot_wan(comm), true);
                      });
  mon.add_invariant(
      id + ".reliability", [&comm]() -> std::optional<std::string> {
        const auto& r = comm.reliability();
        if (r.dropped_after_unreachable > 0 && r.unreachable_reports == 0) {
          return fmt("%llu copie(s) dropped after an unreachable report, "
                     "but no report was ever issued",
                     static_cast<unsigned long long>(
                         r.dropped_after_unreachable));
        }
        return std::nullopt;
      });
}

void attach_path_transport(Monitor& mon, meta::PathTransport& path,
                           const std::string& name) {
  const std::string id = "meta.path." + name;
  for (int side = 0; side < 2; ++side) {
    const std::string sid = id + ".side" + std::to_string(side);
    mon.add_invariant(sid + ".chunk-dup",
                      [&path, side]() -> std::optional<std::string> {
                        return path_duplicates(snapshot_path(path, side));
                      });
    mon.add_invariant(sid + ".chunk-twice",
                      [&path, side]() -> std::optional<std::string> {
                        return path_landings(snapshot_path(path, side), false);
                      });
    mon.add_drain_check(sid + ".chunk-twice",
                        [&path, side]() -> std::optional<std::string> {
                          return path_landings(snapshot_path(path, side), true);
                        });
    mon.add_drain_check(sid + ".drain",
                        [&path, side]() -> std::optional<std::string> {
                          return path_drained(snapshot_path(path, side));
                        });
  }
}

// --- flow -------------------------------------------------------------------

namespace {

FlowAccounts snapshot_graph(const flow::StageGraph& graph) {
  const flow::MetricsRegistry& m = graph.metrics();
  FlowAccounts a;
  a.pushed = m.pushed;
  a.admitted = m.admitted;
  a.admission_dropped = m.admission_dropped;
  a.degraded_dropped = m.degraded_dropped;
  a.completed = m.completed;
  for (const auto& s : m.stages()) a.stage_dropped += s.dropped;
  a.waiting_admission = graph.waiting_admission();
  a.in_flight = static_cast<std::uint64_t>(graph.in_flight());
  return a;
}

}  // namespace

void attach_stage_graph(Monitor& mon, const flow::StageGraph& graph,
                        const std::string& prefix) {
  mon.add_invariant(prefix + ".conservation",
                    [&graph]() -> std::optional<std::string> {
                      return flow_conservation(snapshot_graph(graph));
                    });
  mon.add_drain_check(prefix + ".drain",
                      [&graph]() -> std::optional<std::string> {
                        return flow_drained(snapshot_graph(graph));
                      });
  const flow::MetricsRegistry& metrics = graph.metrics();
  mon.add_invariant(
      prefix + ".stages", [&metrics]() -> std::optional<std::string> {
        for (std::size_t i = 0; i < metrics.stages().size(); ++i) {
          const auto& s = metrics.stages()[i];
          FlowStageAccounts a;
          a.items_in = s.items_in;
          a.items_out = s.items_out;
          a.dropped = s.dropped;
          a.queue_depth = s.queue_depth;
          a.queue_peak = s.queue_peak;
          if (auto broke = flow_stage_sanity(a)) {
            return "stage " + s.name + ": " + *broke;
          }
        }
        return std::nullopt;
      });
  mon.add_invariant(
      prefix + ".degraded-subset",
      [&metrics]() -> std::optional<std::string> {
        if (metrics.degraded_dropped <= metrics.admission_dropped)
          return std::nullopt;
        return fmt("degraded drops (%llu) exceed admission drops (%llu)",
                   static_cast<unsigned long long>(metrics.degraded_dropped),
                   static_cast<unsigned long long>(
                       metrics.admission_dropped));
      });
}

// --- faults -----------------------------------------------------------------

void attach_fault_plan(Monitor& mon, net::FaultPlan& plan,
                       const std::string& prefix) {
  // The plan counts its own transitions before notifying observers, so the
  // bracket check reads the same counts the obs probes export.
  plan.add_observer([&mon, &plan, prefix](const net::FaultEvent& ev,
                                          bool active) {
    if (!active && plan.ends(ev.kind) > plan.begins(ev.kind)) {
      mon.violation(prefix + ".bracket",
                    fmt("fault '%s' reverted more times than applied",
                        ev.target.c_str()));
    }
    mon.note(fmt("fault %s %s %s", to_string(ev.kind), ev.target.c_str(),
                 active ? "begin" : "end"));
  });
  mon.add_drain_check(prefix + ".all-reverted",
                      [&plan]() -> std::optional<std::string> {
                        if (plan.active_faults() == 0 &&
                            plan.begins() == plan.ends())
                          return std::nullopt;
                        return fmt("%d fault(s) still active at drain "
                                   "(begins=%llu ends=%llu)",
                                   plan.active_faults(),
                                   static_cast<unsigned long long>(
                                       plan.begins()),
                                   static_cast<unsigned long long>(
                                       plan.ends()));
                      });
}

// --- obs --------------------------------------------------------------------

void attach_span_tracer(Monitor& mon, const obs::SpanTracer& tracer,
                        const std::string& prefix) {
  mon.add_drain_check(prefix + ".leak",
                      [&tracer]() -> std::optional<std::string> {
                        if (tracer.open_spans() == 0) return std::nullopt;
                        return std::to_string(tracer.open_spans()) +
                               " span(s) still open at drain";
                      });
  mon.add_drain_check(prefix + ".trace-leak",
                      [&tracer]() -> std::optional<std::string> {
                        if (tracer.open_traces() == 0) return std::nullopt;
                        return std::to_string(tracer.open_traces()) +
                               " trace(s) still open at drain";
                      });
}

// --- whole topology ---------------------------------------------------------

void attach_testbed(Monitor& mon, testbed::Testbed& tb) {
  attach_scheduler(mon, tb.scheduler());
  for (const auto& [name, host] : tb.hosts()) attach_host(mon, *host);
  attach_atm_switch(mon, tb.atm_juelich());
  attach_atm_switch(mon, tb.atm_gmd());
  for (const net::Link* uplink : tb.atm_uplinks()) {
    attach_link(mon, *uplink);
  }
}

}  // namespace gtw::check
