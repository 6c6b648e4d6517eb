// Instrumentation: wire the simulator's components into an obs::Registry
// without those components depending on obs.
//
// instrument_* register read-only probes (evaluated at snapshot/sample
// time) over a live component's existing accessors — the component is
// observed, never modified, and nothing is scheduled, so attaching
// instrumentation cannot perturb the DES schedule or any result.
//
// attach_fault_plan is the one active hook: it registers a FaultPlan
// observer that probes each fault kind's transition counts once that kind
// first begins and drops a Mark per transition, so outages show up as
// instant events in the Chrome trace.
//
// Lifetime: probes capture references; the instrumented component must
// outlive the Registry (or at least every snapshot taken from it).
#pragma once

#include <string>

#include "flow/graph.hpp"
#include "meta/communicator.hpp"
#include "net/atm.hpp"
#include "net/fault.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/tcp.hpp"
#include "obs/registry.hpp"

namespace gtw::obs {

// des.sched.{events_executed,live_events,redistributions,ready_high_water,
// overflow_high_water,pool_slots,pool_in_use,pool_high_water,pool_slabs,
// events_per_sim_s}.  The engine-core dashboard: redistributions and
// overflow_high_water (the largest single one) are the radix heap's
// re-sorting work, ready_high_water the most events due at one instant,
// pool high-water is the event-record footprint, and events_per_sim_s
// (executed events per *simulated* second — deterministic, unlike a
// wall-clock rate) tracks how event-dense the scenario is.
void instrument_scheduler(Registry& reg, const des::Scheduler& sched,
                          const std::string& prefix = "des.sched");

// net.link.<name>.{tx_frames,tx_bytes,drops,dropped_bytes,corrupted_frames,
// outage_drops,queue_bytes,queue_mean_bytes,utilization} plus, on fluid
// links, {bursts_completed,burst_pool_slots,burst_pool_high_water}; pass
// `prefix` to override the default "net.link.<name>" (the ATM switch
// instruments its port links under its own hierarchy).
void instrument_link(Registry& reg, const net::Link& link,
                     const std::string& prefix = "");

// net.host.<name>.{packets_sent,packets_received,packets_forwarded,
// unroutable_drops,outage_drops,up}
void instrument_host(Registry& reg, const net::Host& host);

// net.atm.<name>.unroutable_drops plus every egress port's link under
// net.atm.<name>.port<i>.* — the switch-buffer visibility the testbed
// operators lacked when the shared ASX-4000 buffers were squeezed.
void instrument_atm_switch(Registry& reg, net::AtmSwitch& sw);

// tcp.<name>.<side>.{cwnd_bytes,ssthresh_bytes,srtt_ms,rto_ms,segments_sent,
// acks_sent,bytes_acked,retransmits,fast_retransmits,timeouts,dup_acks,
// dup_segments_received,max_ooo_bytes} for side 0 and 1.
void instrument_tcp(Registry& reg, const net::TcpConnection& conn,
                    const std::string& name);

// meta.<name>.{messages_sent,bytes_sent,wan_retries,duplicates_suppressed,
// unreachable_reports,dropped_after_unreachable}
void instrument_communicator(Registry& reg, const meta::Communicator& comm,
                             const std::string& name);

// meta.path.<name>.side<s>.{messages,bytes,chunks,chunk_resends,
// duplicate_chunks,stream_resets,paced_delays,delivered_messages,
// delivered_bytes,reassembly_bytes,reassembly_peak_bytes,goodput_mbps}
// per sending side, meta.path.<name>.side<s>.stream<i>.{chunks,bytes,resets,
// tcp_retransmits,tcp_timeouts} per pooled stream, and path-wide
// {active_streams,stream_window_bytes} gauges from the adaptive controller.
// Probes are registered for the connection pool present at call time.
void instrument_path_transport(Registry& reg, const meta::PathTransport& path,
                               const std::string& name);

// <prefix>.stage.<stage>.{items_in,items_out,dropped,queue_depth,queue_peak,
// busy_ps,occupancy,throughput_per_s} per stage present at call time, plus
// <prefix>.graph.{pushed,admitted,admission_dropped,completed,admission_peak,
// degraded_spans,degraded_dropped,recoveries,degraded_ps,last_recovery_ps}.
void instrument_stage_graph(Registry& reg, const flow::StageGraph& graph,
                            const std::string& prefix);

// <prefix>.{begins,ends,active} plus <prefix>.<kind>.{begins,ends} for each
// kind that has begun: probes over the plan's own transition counts, and a
// Mark per transition.
void attach_fault_plan(Registry& reg, net::FaultPlan& plan,
                       const std::string& prefix = "fault");

}  // namespace gtw::obs
