// Offline analysis of OBS_*.spans.json artifacts (DESIGN.md section 13):
// the reader half of the causal tracing layer, consumed by gtw-trace.
//
// The artifact is line-oriented (one JSON object per line: header, trace
// lines, span lines, footer), so the loader is a strict line scanner, not
// a general JSON parser.  Strict means: a missing or wrong header, a
// missing footer, or a footer whose counts disagree with the lines
// actually present is a hard load error — gtw-trace turns those into a
// non-zero exit so CI catches truncated artifacts (a run killed mid-write)
// instead of silently analysing a prefix.
//
// Analyses:
//  - sweep_trace(): the latency-budget decomposition.  At every instant of
//    a trace's lifetime, the *innermost* active span — the one begun most
//    recently (ties broken by higher span id, i.e. later creation) — owns
//    that instant.  Sweeping the boundaries left to right partitions the
//    root span's [begin, end) into contiguous segments, each attributed to
//    exactly one span and therefore one phase.  Because the segments
//    partition the root interval, per-phase sums add up to the end-to-end
//    latency *exactly*, in integer picoseconds — container phases (root,
//    transfer) absorb any time their children don't cover.
//  - budget(): aggregates the sweep over every closed trace into the
//    paper-style delay-budget table (e2 experiment).
//  - select_trace(): resolves --critical-path's argument (a trace id,
//    "worst", or "p99") against the closed traces' root durations.
//  - write_spans_chrome(): Chrome trace-event export; spans become
//    complete ("X") events and parent->child edges become flow arrows.
//  - track_views(), write_profile(), write_gantt(), write_msg_matrix(): the
//    three VAMPIR views (paper section 3) over compute tracks.  A *track*
//    is the (layer, name) of the compute-phase spans — one pipeline stage,
//    one coupled code — in first-appearance (span id) order.  The profile
//    sums each track's closed compute spans in exact integer picoseconds;
//    the Gantt paints one row per track; the message matrix counts each
//    message once: a transfer-phase span not nested in another transfer,
//    from the track of its nearest compute ancestor to the track of the
//    next compute span begun in the same trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace gtw::obs {

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t trace = 0;
  std::uint64_t parent = 0;  // 0 for trace roots
  std::string phase;
  std::string layer;
  std::string name;
  std::int64_t begin_ps = 0;
  std::int64_t end_ps = 0;
  std::string status;  // "ok" | "aborted" | "open"
};

struct TraceRec {
  std::uint64_t id = 0;
  std::uint64_t root = 0;  // root span id
  std::string origin;
  std::string status;  // "open" | "closed" | "aborted"
  std::string reason;  // abort reason, if aborted
};

struct SpanFile {
  std::string label;
  std::vector<TraceRec> traces;
  std::vector<SpanRec> spans;  // id order; id == index + 1
  std::uint64_t spans_total = 0;
  std::uint64_t traces_total = 0;
  std::uint64_t open_spans = 0;
};

// Strict loader; on failure returns false and sets `error` to a one-line
// human-readable reason (bad header or version, truncated, count mismatch,
// a field that is not a whole integer or a known phase/status, a negative
// begin or an end before it, a parent that is not an earlier span of the same trace, a span or
// root naming an unlisted trace or span).  `what` names the artifact in the
// message (usually the path).
bool load_spans(std::istream& in, const std::string& what, SpanFile& out,
                std::string& error);

// Span by id (nullptr when out of range); ids are dense, 1-based.
const SpanRec* span_by_id(const SpanFile& f, std::uint64_t span_id);

// The layer chain from the trace root down to `s`, e.g.
// "flow>meta>tcp>link" — consecutive duplicate layers collapsed, the
// root's synthetic "trace" layer skipped.  This is the causal crossing a
// critical-path row reports.
std::string layer_chain(const SpanFile& f, const SpanRec& s);

// One contiguous slice of a trace's timeline, attributed to the innermost
// span active over [begin_ps, end_ps).
struct BudgetSegment {
  std::int64_t begin_ps = 0;
  std::int64_t end_ps = 0;
  const SpanRec* span = nullptr;
};

// Innermost-active-span sweep over one trace (see file comment).  Segments
// are returned in time order and partition the root span's interval, so
// their durations sum to the root duration exactly.  Returns an empty
// vector for an unknown trace id or a zero-duration root.
std::vector<BudgetSegment> sweep_trace(const SpanFile& f,
                                       std::uint64_t trace_id);

struct PhaseBudget {
  // Integer-picosecond total attributed to each phase, summed over every
  // closed trace's sweep.  Invariant: values sum to total_ps exactly.
  std::map<std::string, std::int64_t> phase_ps;
  std::int64_t total_ps = 0;  // sum of closed-trace root durations
  std::size_t closed_traces = 0;
  std::size_t aborted_traces = 0;
  std::size_t open_traces = 0;
};
PhaseBudget budget(const SpanFile& f);

// Resolves a --critical-path selector: a numeric trace id (any status),
// "worst" (closed trace with the longest root duration), or "p99" (closed
// trace at the 99th-percentile root duration).  Returns nullptr and sets
// `error` when the selector matches nothing.
const TraceRec* select_trace(const SpanFile& f, const std::string& selector,
                             std::string& error);

// Chrome trace-event JSON: one complete ("X") event per span (pid = trace
// id, tid = span id, a thread_name metadata row naming the span) and one
// flow arrow (ph "s"/"f") per parent->child span edge.
void write_spans_chrome(std::ostream& os, const SpanFile& f);

// The VAMPIR views over compute tracks (see file comment).
struct TrackViews {
  std::vector<std::string> tracks;    // "layer/name", first-appearance order
  std::vector<std::int64_t> busy_ps;  // closed compute-span time per track
  std::vector<std::vector<std::uint64_t>> messages;  // [from][to] track
  std::uint64_t unmatched = 0;  // transfers missing either compute end
};
TrackViews track_views(const SpanFile& f);

void write_profile(std::ostream& os, const TrackViews& v);
void write_msg_matrix(std::ostream& os, const TrackViews& v);
// One row per track, `columns` cells spanning the compute spans' extent;
// a cell is '#' when any of the track's closed compute spans covers it.
void write_gantt(std::ostream& os, const SpanFile& f, int columns);

}  // namespace gtw::obs
