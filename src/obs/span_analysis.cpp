#include "obs/span_analysis.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "obs/json_util.hpp"

namespace gtw::obs {

namespace {

// Field extraction for our own line-oriented writer (span.cpp): every
// field appears as `"key": value` with a single space, values are either
// unsigned integers, signed integers, or quoted strings escaped by
// detail::append_json_escaped.  Inside an escaped string every quote is
// preceded by a backslash, so a `"key": ` pattern can only match a real
// key.  A full JSON parser would be overkill and a second source of truth
// for the format.
bool find_value(const std::string& line, const char* key, std::size_t& pos) {
  const std::string pat = std::string("\"") + key + "\": ";
  const auto p = line.find(pat);
  if (p == std::string::npos) return false;
  pos = p + pat.size();
  return true;
}

bool get_u64(const std::string& line, const char* key, std::uint64_t& out) {
  std::size_t pos;
  if (!find_value(line, key, pos)) return false;
  out = std::strtoull(line.c_str() + pos, nullptr, 10);
  return true;
}

bool get_i64(const std::string& line, const char* key, std::int64_t& out) {
  std::size_t pos;
  if (!find_value(line, key, pos)) return false;
  out = std::strtoll(line.c_str() + pos, nullptr, 10);
  return true;
}

// Reads a quoted string, undoing append_json_escaped.
bool get_str(const std::string& line, const char* key, std::string& out) {
  std::size_t pos;
  if (!find_value(line, key, pos)) return false;
  if (pos >= line.size() || line[pos] != '"') return false;
  out.clear();
  for (std::size_t i = pos + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i == line.size()) return false;
    switch (line[i]) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        if (i + 4 >= line.size()) return false;
        out += static_cast<char>(
            std::strtoul(line.substr(i + 1, 4).c_str(), nullptr, 16));
        i += 4;
        break;
      default: out += line[i];  // \" and \\ stand for themselves
    }
  }
  return false;  // unterminated
}

bool starts_with(const std::string& line, const char* prefix) {
  return line.rfind(prefix, 0) == 0;
}

}  // namespace

bool load_spans(std::istream& in, const std::string& what, SpanFile& out,
                std::string& error) {
  std::string line;
  if (!std::getline(in, line) || !starts_with(line, "{\"gtw_spans\": 1")) {
    error = what + ": not a spans artifact (missing {\"gtw_spans\": 1} header)";
    return false;
  }
  get_str(line, "label", out.label);

  bool have_footer = false;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (have_footer) {
      error = what + ": trailing data after the spans_total footer (line " +
              std::to_string(lineno) + ")";
      return false;
    }
    if (starts_with(line, "{\"spans_total\"")) {
      if (!get_u64(line, "spans_total", out.spans_total) ||
          !get_u64(line, "traces_total", out.traces_total) ||
          !get_u64(line, "open_spans", out.open_spans)) {
        error = what + ": malformed footer (line " + std::to_string(lineno) +
                ")";
        return false;
      }
      have_footer = true;
    } else if (starts_with(line, "{\"trace\"")) {
      TraceRec t;
      if (!get_u64(line, "trace", t.id) || !get_u64(line, "root", t.root) ||
          !get_str(line, "origin", t.origin) ||
          !get_str(line, "status", t.status)) {
        error = what + ": malformed trace line " + std::to_string(lineno);
        return false;
      }
      get_str(line, "reason", t.reason);  // optional
      out.traces.push_back(std::move(t));
    } else if (starts_with(line, "{\"span\"")) {
      SpanRec s;
      if (!get_u64(line, "span", s.id) || !get_u64(line, "trace", s.trace) ||
          !get_u64(line, "parent", s.parent) ||
          !get_str(line, "phase", s.phase) ||
          !get_str(line, "layer", s.layer) || !get_str(line, "name", s.name) ||
          !get_i64(line, "begin_ps", s.begin_ps) ||
          !get_i64(line, "end_ps", s.end_ps) ||
          !get_str(line, "status", s.status)) {
        error = what + ": malformed span line " + std::to_string(lineno);
        return false;
      }
      if (s.id != out.spans.size() + 1) {
        error = what + ": non-sequential span id " + std::to_string(s.id) +
                " (line " + std::to_string(lineno) + ")";
        return false;
      }
      out.spans.push_back(std::move(s));
    } else {
      error = what + ": unrecognised line " + std::to_string(lineno);
      return false;
    }
  }
  if (!have_footer) {
    error = what +
            ": truncated — no {\"spans_total\"} footer; the writing run was"
            " likely interrupted";
    return false;
  }
  if (out.spans.size() != out.spans_total ||
      out.traces.size() != out.traces_total) {
    error = what + ": truncated — footer promises " +
            std::to_string(out.spans_total) + " span(s) / " +
            std::to_string(out.traces_total) + " trace(s), file has " +
            std::to_string(out.spans.size()) + " / " +
            std::to_string(out.traces.size());
    return false;
  }
  return true;
}

const SpanRec* span_by_id(const SpanFile& f, std::uint64_t span_id) {
  if (span_id == 0 || span_id > f.spans.size()) return nullptr;
  return &f.spans[span_id - 1];  // loader enforced id == index + 1
}

std::string layer_chain(const SpanFile& f, const SpanRec& s) {
  std::vector<const SpanRec*> path;
  for (const SpanRec* p = &s; p != nullptr; p = span_by_id(f, p->parent)) {
    path.push_back(p);
    if (path.size() > f.spans.size()) break;  // defensive: corrupt cycle
  }
  std::string chain;
  const std::string* last = nullptr;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const std::string& layer = (*it)->layer;
    if (layer == "trace") continue;  // the root's synthetic layer
    if (last != nullptr && *last == layer) continue;  // collapse runs
    if (!chain.empty()) chain += '>';
    chain += layer;
    last = &layer;
  }
  return chain;
}

namespace {

const TraceRec* find_trace(const SpanFile& f, std::uint64_t trace_id) {
  for (const TraceRec& t : f.traces)
    if (t.id == trace_id) return &t;
  return nullptr;
}

std::int64_t root_duration(const SpanFile& f, const TraceRec& t) {
  const SpanRec* root = span_by_id(f, t.root);
  return root == nullptr ? 0 : root->end_ps - root->begin_ps;
}

}  // namespace

std::vector<BudgetSegment> sweep_trace(const SpanFile& f,
                                       std::uint64_t trace_id) {
  const TraceRec* tr = find_trace(f, trace_id);
  if (tr == nullptr) return {};
  const SpanRec* root = span_by_id(f, tr->root);
  if (root == nullptr || root->end_ps <= root->begin_ps) return {};

  // Candidate spans with their intervals clamped to the root's; zero-width
  // spans (open at write time, or instant) own no time and are dropped.
  struct Clamped {
    const SpanRec* span;
    std::int64_t begin, end;
  };
  std::vector<Clamped> active;
  std::vector<std::int64_t> bounds;
  for (const SpanRec& s : f.spans) {
    if (s.trace != trace_id) continue;
    const std::int64_t b = std::max(s.begin_ps, root->begin_ps);
    const std::int64_t e = std::min(s.end_ps, root->end_ps);
    if (e <= b) continue;
    active.push_back({&s, b, e});
    bounds.push_back(b);
    bounds.push_back(e);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Between two adjacent boundaries the set of active spans is constant;
  // the innermost — begun latest, higher id on ties — owns the segment.
  // The root is always active, so every segment has a winner.
  std::vector<BudgetSegment> segs;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const std::int64_t t0 = bounds[i], t1 = bounds[i + 1];
    const Clamped* winner = nullptr;
    for (const Clamped& c : active) {
      if (c.begin > t0 || c.end < t1) continue;
      if (winner == nullptr ||
          c.span->begin_ps > winner->span->begin_ps ||
          (c.span->begin_ps == winner->span->begin_ps &&
           c.span->id > winner->span->id))
        winner = &c;
    }
    if (winner == nullptr) continue;  // unreachable: the root covers all
    if (!segs.empty() && segs.back().span == winner->span &&
        segs.back().end_ps == t0) {
      segs.back().end_ps = t1;  // merge adjacent segments of one span
    } else {
      segs.push_back({t0, t1, winner->span});
    }
  }
  return segs;
}

PhaseBudget budget(const SpanFile& f) {
  PhaseBudget b;
  for (const TraceRec& t : f.traces) {
    if (t.status == "aborted") {
      ++b.aborted_traces;
      continue;
    }
    if (t.status != "closed") {
      ++b.open_traces;
      continue;
    }
    ++b.closed_traces;
    b.total_ps += root_duration(f, t);
    for (const BudgetSegment& seg : sweep_trace(f, t.id))
      b.phase_ps[seg.span->phase] += seg.end_ps - seg.begin_ps;
  }
  return b;
}

const TraceRec* select_trace(const SpanFile& f, const std::string& selector,
                             std::string& error) {
  if (!selector.empty() &&
      selector.find_first_not_of("0123456789") == std::string::npos) {
    const std::uint64_t id = std::strtoull(selector.c_str(), nullptr, 10);
    const TraceRec* t = find_trace(f, id);
    if (t == nullptr) error = "no trace with id " + selector;
    return t;
  }

  // "worst" and "p99" rank closed traces by end-to-end (root) duration.
  std::vector<std::pair<std::int64_t, const TraceRec*>> closed;
  for (const TraceRec& t : f.traces)
    if (t.status == "closed") closed.push_back({root_duration(f, t), &t});
  if (closed.empty()) {
    error = "no closed traces in artifact";
    return nullptr;
  }
  std::sort(closed.begin(), closed.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second->id < b.second->id;
            });
  if (selector == "worst") return closed.back().second;
  if (selector == "p99") {
    // Nearest-rank percentile: ceil(0.99 * n) in 1-based rank.
    const std::size_t n = closed.size();
    const std::size_t rank = (99 * n + 99) / 100;
    return closed[rank - 1].second;
  }
  error = "bad selector '" + selector + "' (want a trace id, worst, or p99)";
  return nullptr;
}

void write_spans_chrome(std::ostream& os, const SpanFile& f) {
  using detail::json_escape;
  using detail::ts_us;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };

  for (const TraceRec& t : f.traces) {
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(t.id) + ",\"tid\":0,\"args\":{\"name\":\"trace " +
         std::to_string(t.id) + " " + json_escape(t.origin) + " (" +
         json_escape(t.status) + ")\"}}");
  }
  for (const SpanRec& s : f.spans) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
         std::to_string(s.trace) + ",\"tid\":" + std::to_string(s.id) +
         ",\"args\":{\"name\":\"" + json_escape(s.layer) + "/" +
         json_escape(s.name) + "\"}}");
    emit("{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
         json_escape(s.phase) + "\",\"ph\":\"X\",\"pid\":" +
         std::to_string(s.trace) + ",\"tid\":" + std::to_string(s.id) +
         ",\"ts\":" + ts_us(s.begin_ps) + ",\"dur\":" +
         ts_us(s.end_ps - s.begin_ps) + ",\"args\":{\"layer\":\"" +
         json_escape(s.layer) + "\",\"status\":\"" + json_escape(s.status) +
         "\"}}");
  }
  // Causal edges: a flow arrow from each parent span to each child, bound
  // at the child's begin time (the instant causality transfers).
  for (const SpanRec& s : f.spans) {
    if (s.parent == 0) continue;
    const std::string id = std::to_string(s.id);
    emit("{\"name\":\"span-edge\",\"cat\":\"span\",\"ph\":\"s\",\"pid\":" +
         std::to_string(s.trace) + ",\"tid\":" + std::to_string(s.parent) +
         ",\"ts\":" + ts_us(s.begin_ps) + ",\"id\":" + id + "}");
    emit("{\"name\":\"span-edge\",\"cat\":\"span\",\"ph\":\"f\",\"bp\":\"e\","
         "\"pid\":" +
         std::to_string(s.trace) + ",\"tid\":" + std::to_string(s.id) +
         ",\"ts\":" + ts_us(s.begin_ps) + ",\"id\":" + id + "}");
  }
  os << "\n]}\n";
}

}  // namespace gtw::obs
