#include "obs/span_analysis.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>
#include <system_error>

#include "des/span_hook.hpp"
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

// A whole integer: from_chars must consume every digit up to the `,` or
// `}` that ends the value, so `zz`, `12abc` or an overflow is an error,
// never a silent 0.
template <typename Int>
bool get_int(const std::string& line, const char* key, Int& out) {
  std::size_t pos;
  if (!find_value(line, key, pos)) return false;
  const char* last = line.data() + line.size();
  const auto [end, ec] = std::from_chars(line.data() + pos, last, out);
  return ec == std::errc() && end != last && (*end == ',' || *end == '}');
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
      case 'u': {
        unsigned code = 0;
        const char* first = line.data() + i + 1;
        if (i + 4 >= line.size() ||
            std::from_chars(first, first + 4, code, 16).ptr != first + 4)
          return false;
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: out += line[i];  // \" and \\ stand for themselves
    }
  }
  return false;  // unterminated
}

bool starts_with(const std::string& line, const char* prefix) {
  return line.rfind(prefix, 0) == 0;
}

bool known_phase(const std::string& phase) {
  for (int p = 0; p <= static_cast<int>(des::SpanPhase::kAborted); ++p)
    if (phase == des::span_phase_name(static_cast<des::SpanPhase>(p)))
      return true;
  return false;
}

bool one_of(const std::string& v, const char* a, const char* b,
            const char* c) {
  return v == a || v == b || v == c;
}

// Per-line parsers: an empty return is success, anything else is the
// reason the line is rejected.
std::string parse_trace(const std::string& line, const SpanFile& f,
                        TraceRec& t) {
  if (!get_int(line, "trace", t.id) || !get_int(line, "root", t.root) ||
      !get_str(line, "origin", t.origin) || !get_str(line, "status", t.status))
    return "malformed trace line";
  if (t.id != f.traces.size() + 1)
    return "non-sequential trace id " + std::to_string(t.id);
  if (!one_of(t.status, "open", "closed", "aborted"))
    return "unknown trace status \"" + t.status + "\"";
  if (line.find("\"reason\": ") != std::string::npos &&
      !get_str(line, "reason", t.reason))
    return "malformed trace reason";
  return {};
}

std::string parse_span(const std::string& line, const SpanFile& f,
                       SpanRec& s) {
  if (!get_int(line, "span", s.id) || !get_int(line, "trace", s.trace) ||
      !get_int(line, "parent", s.parent) || !get_str(line, "phase", s.phase) ||
      !get_str(line, "layer", s.layer) || !get_str(line, "name", s.name) ||
      !get_int(line, "begin_ps", s.begin_ps) ||
      !get_int(line, "end_ps", s.end_ps) || !get_str(line, "status", s.status))
    return "malformed span line";
  const auto bad = [&s](const std::string& why) {
    return "span " + std::to_string(s.id) + why;
  };
  if (s.id != f.spans.size() + 1)
    return "non-sequential span id " + std::to_string(s.id);
  if (s.trace == 0 || s.trace > f.traces.size())
    return bad(" names unlisted trace " + std::to_string(s.trace));
  if (s.parent >= s.id)
    return bad(" has parent " + std::to_string(s.parent) +
               ", not an earlier span");
  if (s.parent != 0 && f.spans[s.parent - 1].trace != s.trace)
    return bad(" has parent " + std::to_string(s.parent) +
               " from another trace");
  if (s.begin_ps < 0) return bad(" begins before time 0");
  if (s.end_ps < s.begin_ps) return bad(" ends before it begins");
  if (!known_phase(s.phase))
    return "unknown span phase \"" + s.phase + "\"";
  if (!one_of(s.status, "open", "ok", "aborted"))
    return "unknown span status \"" + s.status + "\"";
  return {};
}

}  // namespace

bool load_spans(std::istream& in, const std::string& what, SpanFile& out,
                std::string& error) {
  std::string line;
  if (!std::getline(in, line) || !starts_with(line, "{\"gtw_spans\": ")) {
    error = what + ": not a spans artifact (missing {\"gtw_spans\": 1} header)";
    return false;
  }
  if (int version = 0; !get_int(line, "gtw_spans", version) || version != 1) {
    error = what + ": unsupported spans artifact version (want 1)";
    return false;
  }
  if (line.find("\"label\": ") != std::string::npos &&
      !get_str(line, "label", out.label)) {
    error = what + ": malformed header label";
    return false;
  }

  bool have_footer = false;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string why;
    if (have_footer) {
      why = "trailing data after the spans_total footer";
    } else if (starts_with(line, "{\"spans_total\"")) {
      if (!get_int(line, "spans_total", out.spans_total) ||
          !get_int(line, "traces_total", out.traces_total) ||
          !get_int(line, "open_spans", out.open_spans))
        why = "malformed footer";
      have_footer = true;
    } else if (starts_with(line, "{\"trace\"")) {
      TraceRec t;
      why = parse_trace(line, out, t);
      out.traces.push_back(std::move(t));
    } else if (starts_with(line, "{\"span\"")) {
      SpanRec s;
      why = parse_span(line, out, s);
      out.spans.push_back(std::move(s));
    } else {
      why = "unrecognised line";
    }
    if (!why.empty()) {
      error = what + ": " + why + " (line " + std::to_string(lineno) + ")";
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
  // Roots are checked once every span is in: a trace line precedes its
  // root's span line.
  for (const TraceRec& t : out.traces) {
    const SpanRec* root = span_by_id(out, t.root);
    if (root == nullptr || root->trace != t.id || root->parent != 0) {
      error = what + ": trace " + std::to_string(t.id) + " has root " +
              std::to_string(t.root) + ", not a parentless span of its own";
      return false;
    }
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
    std::uint64_t id = 0;
    std::from_chars(selector.data(), selector.data() + selector.size(), id);
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

namespace {

constexpr std::size_t kNoTrack = static_cast<std::size_t>(-1);

// The compute tracks in first-appearance order, and each span's track
// (kNoTrack for spans of other phases), indexed by span id - 1.
struct TrackIndex {
  std::vector<std::string> names;
  std::vector<std::size_t> of_span;
};

TrackIndex index_tracks(const SpanFile& f) {
  TrackIndex ix;
  ix.of_span.assign(f.spans.size(), kNoTrack);
  std::map<std::pair<std::string, std::string>, std::size_t> seen;
  for (std::size_t i = 0; i < f.spans.size(); ++i) {
    const SpanRec& s = f.spans[i];
    if (s.phase != "compute") continue;
    const auto [it, fresh] = seen.try_emplace({s.layer, s.name}, seen.size());
    if (fresh) ix.names.push_back(s.layer + "/" + s.name);
    ix.of_span[i] = it->second;
  }
  return ix;
}

// The track of the nearest compute ancestor of transfer span `s`, kNoTrack
// when it has none, or nullopt when another transfer is met first (`s` is
// a leg of that transfer's message, counted there).
std::optional<std::size_t> sending_track(const SpanFile& f,
                                         const TrackIndex& ix,
                                         const SpanRec& s) {
  for (const SpanRec* p = span_by_id(f, s.parent); p != nullptr;
       p = p->parent < p->id ? span_by_id(f, p->parent) : nullptr) {
    if (p->phase == "transfer") return std::nullopt;
    if (p->phase == "compute") return ix.of_span[p->id - 1];
  }
  return kNoTrack;
}

// Left-aligned track-label column wide enough for every track.
int label_width(const std::vector<std::string>& tracks) {
  std::size_t w = 5;  // "track"
  for (const std::string& t : tracks) w = std::max(w, t.size());
  return static_cast<int>(w);
}

std::ostream& label(std::ostream& os, int width, const std::string& text) {
  return os << "  " << std::left << std::setw(width) << text << std::right;
}

}  // namespace

TrackViews track_views(const SpanFile& f) {
  const TrackIndex ix = index_tracks(f);
  const std::size_t n = ix.names.size();
  TrackViews v{ix.names, std::vector<std::int64_t>(n, 0),
               std::vector<std::vector<std::uint64_t>>(
                   n, std::vector<std::uint64_t>(n, 0)),
               0};
  // Per trace, the sending tracks of transfers still waiting for the next
  // compute span of their trace.
  std::map<std::uint64_t, std::vector<std::size_t>> waiting;
  for (const SpanRec& s : f.spans) {
    const std::size_t track = ix.of_span[s.id - 1];
    if (track == kNoTrack) {
      if (s.phase != "transfer") continue;
      if (const auto from = sending_track(f, ix, s))
        waiting[s.trace].push_back(*from);
      continue;
    }
    if (s.status != "open") v.busy_ps[track] += s.end_ps - s.begin_ps;
    const auto w = waiting.find(s.trace);
    if (w == waiting.end()) continue;
    for (const std::size_t from : w->second) {
      if (from == kNoTrack)
        ++v.unmatched;
      else
        ++v.messages[from][track];
    }
    waiting.erase(w);
  }
  for (const auto& [trace, froms] : waiting) v.unmatched += froms.size();
  return v;
}

void write_profile(std::ostream& os, const TrackViews& v) {
  os << "compute-track profile (" << v.tracks.size() << " track(s), ps)\n";
  const int w = label_width(v.tracks);
  label(os, w, "track") << ' ' << std::setw(20) << "busy_ps" << '\n';
  for (std::size_t t = 0; t < v.tracks.size(); ++t)
    label(os, w, v.tracks[t]) << ' ' << std::setw(20) << v.busy_ps[t] << '\n';
}

void write_msg_matrix(std::ostream& os, const TrackViews& v) {
  os << "messages (rows: sending track, cols: receiving track)\n";
  const int w = label_width(v.tracks);
  if (!v.tracks.empty()) {
    label(os, w, "") << "   ";
    for (std::size_t to = 0; to < v.tracks.size(); ++to)
      os << ' ' << std::setw(8) << to;
    os << '\n';
  }
  for (std::size_t from = 0; from < v.tracks.size(); ++from) {
    label(os, w, v.tracks[from]) << ' ' << std::setw(2) << from;
    for (const std::uint64_t n : v.messages[from])
      os << ' ' << std::setw(8) << n;
    os << '\n';
  }
  if (v.unmatched != 0)
    os << "  " << v.unmatched
       << " transfer(s) without a compute track at both ends\n";
}

void write_gantt(std::ostream& os, const SpanFile& f, int columns) {
  const TrackIndex ix = index_tracks(f);
  std::int64_t t0 = INT64_MAX, t1 = INT64_MIN;
  for (const SpanRec& s : f.spans) {
    if (ix.of_span[s.id - 1] == kNoTrack || s.status == "open") continue;
    t0 = std::min(t0, s.begin_ps);
    t1 = std::max(t1, s.end_ps);
  }
  if (t1 <= t0 || columns <= 0) {
    os << "(no timed compute spans)\n";
    return;
  }
  os << "timeline " << t0 << " .. " << t1 << " ps, " << columns
     << " column(s)\n";
  const auto cols = static_cast<std::size_t>(columns);
  const double scale =
      static_cast<double>(columns) / static_cast<double>(t1 - t0);
  const auto cell = [&](std::int64_t t) {
    return std::min(cols - 1, static_cast<std::size_t>(
                                  static_cast<double>(t - t0) * scale));
  };
  std::vector<std::string> rows(ix.names.size(), std::string(cols, '.'));
  for (const SpanRec& s : f.spans) {
    const std::size_t track = ix.of_span[s.id - 1];
    if (track == kNoTrack || s.status == "open") continue;
    for (std::size_t c = cell(s.begin_ps); c <= cell(s.end_ps); ++c)
      rows[track][c] = '#';
  }
  const int w = label_width(ix.names);
  for (std::size_t t = 0; t < rows.size(); ++t)
    label(os, w, ix.names[t]) << " |" << rows[t] << "|\n";
}

}  // namespace gtw::obs
