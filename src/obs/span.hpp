// obs::SpanTracer — the runtime half of the causal tracing layer
// (DESIGN.md section 13).  Implements des::SpanHook, the interface the DES
// engine and every latency-bearing component call through null-checked
// virtual dispatch (hook inversion, same shape as GTW-San: interface at
// the DAG bottom in des/, implementation here at the top).
//
// The tracer records, per logical workload unit (a pipeline item, a WAN
// message), a tree of typed spans — queue-wait, serialize, propagate,
// host-cpu, retransmit-stall, reassembly-wait, retry-backoff, compute —
// each stamped with exact integer-picosecond DES begin/end times.  Two
// propagation mechanisms feed it:
//
//   scheduler-mediated: on_event_scheduled() snapshots the running event's
//   TraceContext against the new event's sequence number, and
//   on_event_fire()/on_event_done() bracket the dispatch, so continuation
//   chains inherit their cause's context with zero per-component code;
//
//   payload-carried: packets, frames, TCP messages and transport chunks
//   carry a TraceContext, and components bracket asynchronous handoffs
//   with adopt().
//
// Perturbation-free by construction: the tracer never touches the
// scheduler, never reads wall-clock time, and allocates only its own
// bookkeeping, so attaching it cannot change the event sequence and every
// BENCH_*.json artifact stays byte-identical.  Span volume is bounded with
// enable_layer(): begin_span() for a disabled layer returns span id 0, and
// ending/aborting span 0 is a no-op everywhere.
//
// The bookkeeping is a compact span store: fixed-size span records that
// name their layer and name by interned id, trace records indexed by id,
// and a seq-ordered pending table.  Once the names are interned, a run
// allocates only the span vector's amortised growth
// (tests/span_alloc_test.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "des/span_hook.hpp"
#include "des/time.hpp"

namespace gtw::obs {

class SpanTracer : public des::SpanHook {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  // Span-volume filter: begin_span() for a disabled layer returns 0.
  // Roots (mint) are always recorded.  Layers default to enabled.
  void enable_layer(std::string_view layer, bool on);

  // --- des::SpanHook --------------------------------------------------------
  void on_event_scheduled(std::uint64_t seq) override;
  void on_event_fire(std::uint64_t seq) override;
  void on_event_done() override;
  void on_event_cancel(std::uint64_t seq) override;
  des::TraceContext mint(const char* origin, des::SimTime now) override;
  des::TraceContext current() const override;
  des::TraceContext adopt(des::TraceContext ctx) override;
  std::uint64_t begin_span(des::TraceContext parent, des::SpanPhase phase,
                           const char* layer, const char* name,
                           des::SimTime now) override;
  void end_span(std::uint64_t span_id, des::SimTime now) override;
  void abort_span(std::uint64_t span_id, des::SimTime now) override;
  void close_trace(des::TraceContext ctx, des::SimTime now) override;
  void abort_trace(des::TraceContext ctx, const char* reason,
                   des::SimTime now) override;

  // --- recorded data --------------------------------------------------------
  // Index into the tracer's string table (layer, name(), origin(), ...).
  using NameId = std::uint32_t;
  static constexpr NameId kNoName = UINT32_MAX;

  enum class SpanStatus : std::uint8_t { kOpen, kOk, kAborted };
  enum class TraceStatus : std::uint8_t { kOpen, kClosed, kAborted };

  // One span; its id is its index in spans() + 1.
  struct Span {
    std::uint64_t trace = 0;
    std::uint64_t parent = 0;  // parent span id; 0 for trace roots
    des::SimTime begin;
    des::SimTime end;  // == begin while open
    NameId layer = kNoName;
    NameId name = kNoName;
    des::SpanPhase phase = des::SpanPhase::kRoot;
    SpanStatus status = SpanStatus::kOpen;

    bool open() const { return status == SpanStatus::kOpen; }
    bool aborted() const { return status == SpanStatus::kAborted; }
  };
  static_assert(std::is_trivially_copyable_v<Span> && sizeof(Span) <= 48);

  // One trace; its id is its index in traces() + 1.
  struct Trace {
    std::uint64_t root = 0;        // root span id
    std::uint64_t open_spans = 0;  // this trace's spans still open
    NameId origin = kNoName;
    NameId reason = kNoName;  // abort reason; kNoName unless aborted
    TraceStatus status = TraceStatus::kOpen;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Trace>& traces() const { return traces_; }

  std::string_view str(NameId id) const {
    return id == kNoName ? std::string_view{} : names_[id].text;
  }
  std::string_view layer(const Span& s) const { return str(s.layer); }
  std::string_view name(const Span& s) const { return str(s.name); }
  std::string_view origin(const Trace& t) const { return str(t.origin); }
  std::string_view reason(const Trace& t) const { return str(t.reason); }
  // Artifact spelling: spans are "open"/"ok"/"aborted", traces
  // "open"/"closed"/"aborted".
  static const char* status_name(SpanStatus s);
  static const char* status_name(TraceStatus s);

  // Leak census: spans begun but neither ended nor aborted, and traces
  // still open.  Both must be zero once a run drains and every component
  // has retired its in-flight work (tests/span_test.cpp; under GTW_CHECK
  // the census is registered as a drain check via check::attach).
  std::size_t open_spans() const { return open_spans_; }
  std::size_t open_traces() const { return open_traces_; }
  // Rows in the pending-context table, tombstones included.  Bounded by
  // twice the number of traced events still pending.
  std::size_t pending_rows() const { return pending_.size(); }

  // Line-oriented spans artifact (OBS_<label>.spans.json): a header line,
  // one trace line per trace, one span line per span — all timestamps
  // exact integer picoseconds, strings JSON-escaped — and a
  // {"spans_total": N} footer that lets readers detect truncation.
  void write_json(std::ostream& os, const std::string& label) const;

 private:
  struct Name {
    std::string text;
    bool enabled = true;  // layer filter; only consulted for layers
  };
  // A scheduled event's context; a zero trace_id marks a tombstone.
  struct Pending {
    std::uint64_t seq;
    des::TraceContext ctx;
  };

  NameId intern(std::string_view s);
  Span* find_open(std::uint64_t span_id);
  Trace* find_trace(std::uint64_t trace_id);
  void close_span(Span& s, des::SimTime now, SpanStatus status);
  std::vector<Pending>::iterator find_pending(std::uint64_t seq);
  des::TraceContext take_pending(std::uint64_t seq);

  std::vector<Span> spans_;
  std::vector<Trace> traces_;
  // String table: a deque never moves its elements, so the views the index
  // is keyed by stay valid as it grows.  Ids follow first use, which is
  // deterministic; the index is only looked up, never iterated.
  std::deque<Name> names_;
  // gtw-lint: allow(unordered-container) — lookup-only, never iterated
  std::unordered_map<std::string_view, NameId> name_index_;
  // Scheduler-mediated propagation: contexts snapshotted per pending event,
  // sorted by seq (the scheduler hands out seqs in increasing order).
  std::vector<Pending> pending_;
  std::size_t pending_live_ = 0;
  des::TraceContext current_;
  std::size_t open_spans_ = 0;
  std::size_t open_traces_ = 0;
};

}  // namespace gtw::obs
