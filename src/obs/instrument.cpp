#include "obs/instrument.hpp"

#include <string>

namespace gtw::obs {

void instrument_scheduler(Registry& reg, const des::Scheduler& sched,
                          const std::string& prefix) {
  const std::string p = prefix + ".";
  reg.probe_counter(p + "events_executed",
                    [&sched] { return sched.events_executed(); });
  reg.probe_gauge(p + "live_events", [&sched] {
    return static_cast<double>(sched.live_events());
  });
  reg.probe_counter(p + "redistributions",
                    [&sched] { return sched.redistributions(); });
  reg.probe_counter(p + "ready_high_water", [&sched] {
    return static_cast<std::uint64_t>(sched.ready_high_water());
  });
  reg.probe_counter(p + "overflow_high_water", [&sched] {
    return static_cast<std::uint64_t>(sched.overflow_high_water());
  });
  reg.probe_counter(p + "pool_slots", [&sched] {
    return static_cast<std::uint64_t>(sched.pool_slots());
  });
  reg.probe_gauge(p + "pool_in_use", [&sched] {
    return static_cast<double>(sched.pool_in_use());
  });
  reg.probe_counter(p + "pool_high_water", [&sched] {
    return static_cast<std::uint64_t>(sched.pool_high_water());
  });
  reg.probe_counter(p + "pool_slabs", [&sched] {
    return static_cast<std::uint64_t>(sched.pool_slabs());
  });
  // Deterministic rate: events per simulated second (never wall clock — a
  // wall-clock rate would break the byte-identical replay gate).
  reg.probe_gauge(p + "events_per_sim_s", [&sched] {
    const double sim_s = sched.now().sec();
    if (sim_s <= 0.0) return 0.0;
    return static_cast<double>(sched.events_executed()) / sim_s;
  });
}

void instrument_link(Registry& reg, const net::Link& link,
                     const std::string& prefix) {
  const std::string p =
      (prefix.empty() ? "net.link." + link.name() : prefix) + ".";
  reg.probe_counter(p + "tx_frames", [&link] { return link.frames_sent(); });
  reg.probe_counter(p + "tx_bytes", [&link] { return link.bytes_sent(); });
  reg.probe_counter(p + "drops", [&link] { return link.drops(); });
  reg.probe_counter(p + "dropped_bytes",
                    [&link] { return link.dropped_bytes(); });
  reg.probe_counter(p + "corrupted_frames",
                    [&link] { return link.corrupted_frames(); });
  reg.probe_counter(p + "outage_drops",
                    [&link] { return link.outage_drops(); });
  reg.probe_gauge(p + "queue_bytes", [&link] {
    return static_cast<double>(link.queue_bytes());
  });
  reg.probe_gauge(p + "queue_frames", [&link] {
    return static_cast<double>(link.queue_frames());
  });
  reg.probe_gauge(p + "queue_mean_bytes",
                  [&link] { return link.mean_queue_bytes(); });
  reg.probe_gauge(p + "utilization", [&link] { return link.utilization(); });
  if (link.fidelity() == net::LinkFidelity::kFluid) {
    reg.probe_counter(p + "bursts_completed",
                      [&link] { return link.bursts_completed(); });
    reg.probe_counter(p + "burst_pool_slots", [&link] {
      return static_cast<std::uint64_t>(link.burst_pool_slots());
    });
    reg.probe_counter(p + "burst_pool_high_water", [&link] {
      return static_cast<std::uint64_t>(link.burst_pool_high_water());
    });
  }
}

void instrument_host(Registry& reg, const net::Host& host) {
  const std::string p = "net.host." + host.name() + ".";
  reg.probe_counter(p + "packets_sent",
                    [&host] { return host.packets_sent(); });
  reg.probe_counter(p + "packets_received",
                    [&host] { return host.packets_received(); });
  reg.probe_counter(p + "packets_forwarded",
                    [&host] { return host.packets_forwarded(); });
  reg.probe_counter(p + "unroutable_drops",
                    [&host] { return host.unroutable_drops(); });
  reg.probe_counter(p + "outage_drops",
                    [&host] { return host.outage_drops(); });
  reg.probe_gauge(p + "up", [&host] { return host.up() ? 1.0 : 0.0; });
}

void instrument_atm_switch(Registry& reg, net::AtmSwitch& sw) {
  const std::string p = "net.atm." + sw.name() + ".";
  reg.probe_counter(p + "unroutable_drops",
                    [&sw] { return sw.unroutable_drops(); });
  for (int port = 0; port < sw.port_count(); ++port)
    instrument_link(reg, sw.egress_link(port),
                    p + "port" + std::to_string(port));
}

void instrument_tcp(Registry& reg, const net::TcpConnection& conn,
                    const std::string& name) {
  for (int side = 0; side < 2; ++side) {
    const std::string p = "tcp." + name + "." + std::to_string(side) + ".";
    // stats(side) re-reads the endpoint each evaluation, so gauges track the
    // live cwnd/ssthresh/RTO trajectory when sampled.
    reg.probe_gauge(p + "cwnd_bytes",
                    [&conn, side] { return conn.stats(side).cwnd_bytes; });
    reg.probe_gauge(p + "ssthresh_bytes",
                    [&conn, side] { return conn.stats(side).ssthresh_bytes; });
    reg.probe_gauge(p + "srtt_ms",
                    [&conn, side] { return conn.stats(side).srtt_ms; });
    reg.probe_gauge(p + "rto_ms",
                    [&conn, side] { return conn.stats(side).rto_ms; });
    reg.probe_counter(p + "segments_sent",
                      [&conn, side] { return conn.stats(side).segments_sent; });
    reg.probe_counter(p + "acks_sent",
                      [&conn, side] { return conn.stats(side).acks_sent; });
    reg.probe_counter(p + "bytes_acked",
                      [&conn, side] { return conn.stats(side).bytes_acked; });
    reg.probe_counter(p + "retransmits",
                      [&conn, side] { return conn.stats(side).retransmits; });
    reg.probe_counter(p + "fast_retransmits", [&conn, side] {
      return conn.stats(side).fast_retransmits;
    });
    reg.probe_counter(p + "timeouts",
                      [&conn, side] { return conn.stats(side).timeouts; });
    reg.probe_counter(p + "dup_acks",
                      [&conn, side] { return conn.stats(side).dup_acks; });
    reg.probe_counter(p + "dup_segments_received", [&conn, side] {
      return conn.stats(side).dup_segments_received;
    });
    reg.probe_counter(p + "max_ooo_bytes",
                      [&conn, side] { return conn.stats(side).max_ooo_bytes; });
  }
}

void instrument_communicator(Registry& reg, const meta::Communicator& comm,
                             const std::string& name) {
  const std::string p = "meta." + name + ".";
  reg.probe_counter(p + "messages_sent",
                    [&comm] { return comm.messages_sent(); });
  reg.probe_counter(p + "bytes_sent", [&comm] { return comm.bytes_sent(); });
  reg.probe_counter(p + "wan_retries",
                    [&comm] { return comm.reliability().wan_retries; });
  reg.probe_counter(p + "duplicates_suppressed", [&comm] {
    return comm.reliability().duplicates_suppressed;
  });
  reg.probe_counter(p + "unreachable_reports", [&comm] {
    return comm.reliability().unreachable_reports;
  });
  reg.probe_counter(p + "dropped_after_unreachable", [&comm] {
    return comm.reliability().dropped_after_unreachable;
  });
}

void instrument_path_transport(Registry& reg, const meta::PathTransport& path,
                               const std::string& name) {
  const std::string p = "meta.path." + name + ".";
  for (int side = 0; side < 2; ++side) {
    const std::string sp = p + "side" + std::to_string(side) + ".";
    const meta::PathTransport::Stats& st = path.stats(side);
    reg.probe_counter(sp + "messages", [&st] { return st.messages; });
    reg.probe_counter(sp + "bytes", [&st] { return st.bytes; });
    reg.probe_counter(sp + "chunks", [&st] { return st.chunks; });
    reg.probe_counter(sp + "chunk_resends",
                      [&st] { return st.chunk_resends; });
    reg.probe_counter(sp + "duplicate_chunks",
                      [&st] { return st.duplicate_chunks; });
    reg.probe_counter(sp + "stream_resets",
                      [&st] { return st.stream_resets; });
    reg.probe_counter(sp + "paced_delays", [&st] { return st.paced_delays; });
    reg.probe_counter(sp + "delivered_messages",
                      [&st] { return st.delivered_messages; });
    reg.probe_counter(sp + "delivered_bytes",
                      [&st] { return st.delivered_bytes; });
    reg.probe_gauge(sp + "reassembly_bytes", [&st] {
      return static_cast<double>(st.reassembly_bytes);
    });
    reg.probe_gauge(sp + "reassembly_peak_bytes", [&st] {
      return static_cast<double>(st.reassembly_peak_bytes);
    });
    reg.probe_gauge(sp + "goodput_mbps", [&path, side] {
      return path.goodput(side).bps() / 1e6;
    });
    for (int s = 0; s < path.stream_count(); ++s) {
      const std::string stp = sp + "stream" + std::to_string(s) + ".";
      reg.probe_counter(stp + "chunks", [&path, side, s] {
        return path.stream_stats(side, s).chunks;
      });
      reg.probe_counter(stp + "bytes", [&path, side, s] {
        return path.stream_stats(side, s).bytes;
      });
      reg.probe_counter(stp + "resets", [&path, side, s] {
        return path.stream_stats(side, s).resets;
      });
      reg.probe_counter(stp + "tcp_retransmits", [&path, side, s] {
        return path.stream_stats(side, s).tcp_retransmits;
      });
      reg.probe_counter(stp + "tcp_timeouts", [&path, side, s] {
        return path.stream_stats(side, s).tcp_timeouts;
      });
    }
  }
  reg.probe_gauge(p + "active_streams", [&path] {
    return static_cast<double>(path.active_streams());
  });
  reg.probe_gauge(p + "stream_window_bytes", [&path] {
    return static_cast<double>(path.stream_window().count());
  });
}

void instrument_stage_graph(Registry& reg, const flow::StageGraph& graph,
                            const std::string& prefix) {
  const flow::MetricsRegistry& metrics = graph.metrics();
  for (int i = 0; i < graph.stage_count(); ++i) {
    // Capture (registry, index), not a StageMetrics reference: the stages
    // vector may reallocate if stages are added after instrumentation.
    const std::string p =
        prefix + ".stage." + metrics.stage(i).name + ".";
    reg.probe_counter(p + "items_in",
                      [&metrics, i] { return metrics.stage(i).items_in; });
    reg.probe_counter(p + "items_out",
                      [&metrics, i] { return metrics.stage(i).items_out; });
    reg.probe_counter(p + "dropped",
                      [&metrics, i] { return metrics.stage(i).dropped; });
    reg.probe_gauge(p + "queue_depth", [&metrics, i] {
      return static_cast<double>(metrics.stage(i).queue_depth);
    });
    reg.probe_counter(p + "queue_peak", [&metrics, i] {
      return static_cast<std::uint64_t>(metrics.stage(i).queue_peak);
    });
    reg.probe_counter(p + "busy_ps", [&metrics, i] {
      return static_cast<std::uint64_t>(metrics.stage(i).busy.ps());
    });
    reg.probe_gauge(p + "occupancy",
                    [&metrics, i] { return metrics.stage(i).occupancy(); });
    reg.probe_gauge(p + "throughput_per_s", [&metrics, i] {
      return metrics.stage(i).throughput_per_s();
    });
  }
  const std::string g = prefix + ".graph.";
  reg.probe_counter(g + "pushed", [&metrics] { return metrics.pushed; });
  reg.probe_counter(g + "admitted", [&metrics] { return metrics.admitted; });
  reg.probe_counter(g + "admission_dropped",
                    [&metrics] { return metrics.admission_dropped; });
  reg.probe_counter(g + "completed", [&metrics] { return metrics.completed; });
  reg.probe_counter(g + "admission_peak", [&metrics] {
    return static_cast<std::uint64_t>(metrics.admission_peak);
  });
  reg.probe_counter(g + "degraded_spans",
                    [&metrics] { return metrics.degraded_spans; });
  reg.probe_counter(g + "degraded_dropped",
                    [&metrics] { return metrics.degraded_dropped; });
  reg.probe_counter(g + "recoveries",
                    [&metrics] { return metrics.recoveries; });
  reg.probe_counter(g + "degraded_ps", [&metrics] {
    return static_cast<std::uint64_t>(metrics.degraded_time.ps());
  });
  reg.probe_counter(g + "last_recovery_ps", [&metrics] {
    return static_cast<std::uint64_t>(metrics.last_recovery_time.ps());
  });
}

void attach_fault_plan(Registry& reg, net::FaultPlan& plan,
                       const std::string& prefix) {
  // Totals are eager so they read as zeros even when no fault ever fires.
  reg.probe_counter(prefix + ".begins", [&plan] { return plan.begins(); });
  reg.probe_counter(prefix + ".ends", [&plan] { return plan.ends(); });
  reg.probe_gauge(prefix + ".active", [&plan] {
    return static_cast<double>(plan.active_faults());
  });
  plan.add_observer([&reg, &plan, prefix](const net::FaultEvent& ev,
                                          bool active) {
    const std::string p = prefix + "." + net::to_string(ev.kind);
    // A kind's pair appears on its first begin, so only kinds the script
    // exercises show up in the snapshot.
    if (!reg.contains(p + ".begins")) {
      const net::FaultEvent::Kind kind = ev.kind;
      reg.probe_counter(p + ".begins",
                        [&plan, kind] { return plan.begins(kind); });
      reg.probe_counter(p + ".ends", [&plan, kind] { return plan.ends(kind); });
    }
    reg.mark(p + "." + ev.target, active ? ev.at : ev.at + ev.duration,
             active);
  });
}

}  // namespace gtw::obs
