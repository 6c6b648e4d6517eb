#include "obs/span.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>

#include "obs/json_util.hpp"

namespace gtw::obs {

SpanTracer::NameId SpanTracer::intern(std::string_view s) {
  if (auto it = name_index_.find(s); it != name_index_.end())
    return it->second;
  const auto id = static_cast<NameId>(names_.size());
  names_.push_back(Name{std::string(s)});
  name_index_.emplace(names_.back().text, id);
  return id;
}

void SpanTracer::enable_layer(std::string_view layer, bool on) {
  names_[intern(layer)].enabled = on;
}

const char* SpanTracer::status_name(SpanStatus s) {
  switch (s) {
    case SpanStatus::kOpen: return "open";
    case SpanStatus::kOk: return "ok";
    case SpanStatus::kAborted: return "aborted";
  }
  return "?";
}

const char* SpanTracer::status_name(TraceStatus s) {
  switch (s) {
    case TraceStatus::kOpen: return "open";
    case TraceStatus::kClosed: return "closed";
    case TraceStatus::kAborted: return "aborted";
  }
  return "?";
}

std::vector<SpanTracer::Pending>::iterator SpanTracer::find_pending(
    std::uint64_t seq) {
  return std::lower_bound(
      pending_.begin(), pending_.end(), seq,
      [](const Pending& p, std::uint64_t s) { return p.seq < s; });
}

void SpanTracer::on_event_scheduled(std::uint64_t seq) {
  if (!current_.valid()) return;
  ++pending_live_;
  if (pending_.empty() || seq > pending_.back().seq) {
    pending_.push_back({seq, current_});
    return;
  }
  // Only a tracer shared by two schedulers, or moved on to a fresh one,
  // sees a seq out of order: keep the table sorted, and let a repeated seq
  // take the newer context.
  auto it = find_pending(seq);
  if (it != pending_.end() && it->seq == seq) {
    if (it->ctx.valid()) --pending_live_;
    it->ctx = current_;
  } else {
    pending_.insert(it, {seq, current_});
  }
}

des::TraceContext SpanTracer::take_pending(std::uint64_t seq) {
  auto it = find_pending(seq);
  if (it == pending_.end() || it->seq != seq || !it->ctx.valid()) return {};
  const des::TraceContext ctx = it->ctx;
  it->ctx = des::TraceContext{};
  --pending_live_;
  // Once tombstones outnumber live rows, compact (the same policy as
  // Scheduler::sweep_cancelled): the table stays O(live).
  if (pending_.size() - pending_live_ > pending_live_)
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [](const Pending& p) {
                                    return !p.ctx.valid();
                                  }),
                   pending_.end());
  return ctx;
}

void SpanTracer::on_event_fire(std::uint64_t seq) {
  current_ = take_pending(seq);
}

void SpanTracer::on_event_done() { current_ = des::TraceContext{}; }

void SpanTracer::on_event_cancel(std::uint64_t seq) { take_pending(seq); }

des::TraceContext SpanTracer::mint(const char* origin, des::SimTime now) {
  const std::uint64_t trace_id = traces_.size() + 1;
  const NameId name = intern(origin);
  spans_.push_back(Span{trace_id, 0, now, now, intern("trace"), name,
                        des::SpanPhase::kRoot, SpanStatus::kOpen});
  ++open_spans_;
  traces_.push_back(
      Trace{spans_.size(), 1, name, kNoName, TraceStatus::kOpen});
  ++open_traces_;
  return des::TraceContext{trace_id, spans_.size()};
}

des::TraceContext SpanTracer::current() const { return current_; }

des::TraceContext SpanTracer::adopt(des::TraceContext ctx) {
  const des::TraceContext prev = current_;
  current_ = ctx;
  return prev;
}

std::uint64_t SpanTracer::begin_span(des::TraceContext parent,
                                     des::SpanPhase phase, const char* layer,
                                     const char* name, des::SimTime now) {
  if (!parent.valid()) return 0;
  const NameId layer_id = intern(layer);
  if (!names_[layer_id].enabled) return 0;
  spans_.push_back(Span{parent.trace_id, parent.span_id, now, now, layer_id,
                        intern(name), phase, SpanStatus::kOpen});
  ++open_spans_;
  if (Trace* t = find_trace(parent.trace_id)) ++t->open_spans;
  return spans_.size();
}

SpanTracer::Span* SpanTracer::find_open(std::uint64_t span_id) {
  if (span_id == 0 || span_id > spans_.size()) return nullptr;
  Span& s = spans_[span_id - 1];
  return s.open() ? &s : nullptr;
}

SpanTracer::Trace* SpanTracer::find_trace(std::uint64_t trace_id) {
  if (trace_id == 0 || trace_id > traces_.size()) return nullptr;
  return &traces_[trace_id - 1];
}

void SpanTracer::close_span(Span& s, des::SimTime now, SpanStatus status) {
  s.end = now;
  s.status = status;
  --open_spans_;
  if (Trace* t = find_trace(s.trace)) --t->open_spans;
}

void SpanTracer::end_span(std::uint64_t span_id, des::SimTime now) {
  if (Span* s = find_open(span_id)) close_span(*s, now, SpanStatus::kOk);
}

void SpanTracer::abort_span(std::uint64_t span_id, des::SimTime now) {
  if (Span* s = find_open(span_id)) close_span(*s, now, SpanStatus::kAborted);
}

void SpanTracer::close_trace(des::TraceContext ctx, des::SimTime now) {
  Trace* t = find_trace(ctx.trace_id);
  if (t == nullptr || t->status != TraceStatus::kOpen) return;
  t->status = TraceStatus::kClosed;
  --open_traces_;
  end_span(t->root, now);
}

void SpanTracer::abort_trace(des::TraceContext ctx, const char* reason,
                             des::SimTime now) {
  Trace* t = find_trace(ctx.trace_id);
  if (t == nullptr || t->status != TraceStatus::kOpen) return;
  t->status = TraceStatus::kAborted;
  t->reason = intern(reason == nullptr ? "" : reason);
  --open_traces_;
  // Cascade: whatever the trace's components still hold open dies with it
  // (a dropped message's late copies will try to end these spans later;
  // those calls land on closed spans and no-op).  Every span of the trace
  // comes at or after its root, and the scan stops at the last open one.
  for (std::uint64_t id = t->root; t->open_spans > 0 && id <= spans_.size();
       ++id) {
    Span& s = spans_[id - 1];
    if (s.trace == ctx.trace_id && s.open())
      close_span(s, now, SpanStatus::kAborted);
  }
}

namespace {

// One line at a time into a reusable buffer, handed to the stream in large
// writes: integers through std::to_chars, strings JSON-escaped.
class LineWriter {
 public:
  explicit LineWriter(std::ostream& os) : os_(os) { buf_.reserve(kFlushAt); }

  LineWriter& raw(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  template <typename Int>
  LineWriter& num(Int v) {
    char digits[24];
    const auto r = std::to_chars(digits, digits + sizeof digits, v);
    buf_.append(digits, r.ptr);
    return *this;
  }
  // A quoted, escaped JSON string.
  LineWriter& str(std::string_view s) {
    buf_ += '"';
    detail::append_json_escaped(buf_, s);
    buf_ += '"';
    return *this;
  }
  void end_line() {
    buf_ += "}\n";
    if (buf_.size() >= kFlushAt) flush();
  }
  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  static constexpr std::size_t kFlushAt = 64 * 1024;
  std::ostream& os_;
  std::string buf_;
};

}  // namespace

void SpanTracer::write_json(std::ostream& os, const std::string& label) const {
  LineWriter w(os);
  w.raw("{\"gtw_spans\": 1, \"label\": ").str(label).end_line();
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    const Trace& t = traces_[i];
    w.raw("{\"trace\": ").num(i + 1).raw(", \"root\": ").num(t.root);
    w.raw(", \"origin\": ").str(origin(t));
    w.raw(", \"status\": ").str(status_name(t.status));
    if (!reason(t).empty()) w.raw(", \"reason\": ").str(reason(t));
    w.end_line();
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.raw("{\"span\": ").num(i + 1).raw(", \"trace\": ").num(s.trace);
    w.raw(", \"parent\": ").num(s.parent);
    w.raw(", \"phase\": ").str(des::span_phase_name(s.phase));
    w.raw(", \"layer\": ").str(layer(s)).raw(", \"name\": ").str(name(s));
    w.raw(", \"begin_ps\": ").num(s.begin.ps());
    w.raw(", \"end_ps\": ").num((s.open() ? s.begin : s.end).ps());
    w.raw(", \"status\": ").str(status_name(s.status)).end_line();
  }
  w.raw("{\"spans_total\": ").num(spans_.size());
  w.raw(", \"traces_total\": ").num(traces_.size());
  w.raw(", \"open_spans\": ").num(open_spans_).end_line();
  w.flush();
}

}  // namespace gtw::obs
