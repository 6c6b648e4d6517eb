// The spans artifact as the simulator's one trace format: load_spans'
// strictness (every corrupt field or link is a one-line reason, never a
// silent 0) and the VAMPIR views gtw-trace derives from it — the per-track
// compute profile, the Gantt, and the track-to-track message matrix.
//
// The TraceTest cases keep the names of the binary trace reader's tests
// they replace: each checks the same finding class on the spans artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "des/span_hook.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"

namespace gtw::obs {
namespace {

using des::SimTime;
using des::SpanPhase;

SimTime ps(std::int64_t p) { return SimTime::picoseconds(p); }

SpanFile load_ok(const std::string& text) {
  std::istringstream is(text);
  SpanFile f;
  std::string error;
  EXPECT_TRUE(load_spans(is, "t.spans.json", f, error)) << error;
  return f;
}

SpanFile artifact_of(const SpanTracer& t) {
  std::ostringstream os;
  t.write_json(os, "views");
  return load_ok(os.str());
}

// One closed trace: a compute span sending a transfer.
const char* const kGood = R"({"gtw_spans": 1, "label": "t"}
{"trace": 1, "root": 1, "origin": "o", "status": "closed"}
{"span": 1, "trace": 1, "parent": 0, "phase": "root", "layer": "trace", "name": "o", "begin_ps": 0, "end_ps": 100, "status": "ok"}
{"span": 2, "trace": 1, "parent": 1, "phase": "compute", "layer": "flow", "name": "work", "begin_ps": 10, "end_ps": 50, "status": "ok"}
{"span": 3, "trace": 1, "parent": 2, "phase": "transfer", "layer": "tcp", "name": "msg", "begin_ps": 20, "end_ps": 40, "status": "ok"}
{"spans_total": 3, "traces_total": 1, "open_spans": 0}
)";

// kGood with `from` replaced by `to` (which must occur exactly once).
std::string patched(const std::string& from, const std::string& to) {
  std::string text = kGood;
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  EXPECT_EQ(text.find(from, at + 1), std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// The load must fail with a one-line reason mentioning `needle`.
void expect_rejects(const std::string& text, const std::string& needle) {
  std::istringstream is(text);
  SpanFile f;
  std::string error;
  EXPECT_FALSE(load_spans(is, "t.spans.json", f, error));
  EXPECT_NE(error.find(needle), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  EXPECT_EQ(error.rfind("t.spans.json: ", 0), 0u) << error;
}

// --- loader -----------------------------------------------------------------

TEST(TraceTest, GoodBytesRoundTrip) {
  const SpanFile f = load_ok(kGood);
  EXPECT_EQ(f.label, "t");
  ASSERT_EQ(f.traces.size(), 1u);
  EXPECT_EQ(f.traces[0].root, 1u);
  ASSERT_EQ(f.spans.size(), 3u);
  EXPECT_EQ(f.spans[2].parent, 2u);
  EXPECT_EQ(f.spans[2].phase, "transfer");
  EXPECT_EQ(f.spans[1].end_ps, 50);
}

TEST(TraceTest, BinaryRoundTrip) {
  // Every field of 100 spans over four traces survives write_json ->
  // load_spans unchanged.
  SpanTracer t;
  std::vector<des::TraceContext> ctx;
  for (int i = 0; i < 4; ++i) ctx.push_back(t.mint("origin", ps(i)));
  for (int i = 0; i < 96; ++i) {
    const des::TraceContext c = ctx[static_cast<std::size_t>(i % 4)];
    const std::uint64_t s =
        t.begin_span(c, i % 2 ? SpanPhase::kCompute : SpanPhase::kTransfer,
                     "layer", i % 2 ? "solve" : "exchange", ps(10 + i));
    if (i % 3 != 0) t.end_span(s, ps(1'000 + 7 * i));
  }
  for (const des::TraceContext& c : ctx) t.close_trace(c, ps(5'000));
  const SpanFile f = artifact_of(t);
  ASSERT_EQ(f.spans.size(), t.spans().size());
  ASSERT_EQ(f.traces.size(), 4u);
  for (std::size_t i = 0; i < f.spans.size(); ++i) {
    const SpanTracer::Span& s = t.spans()[i];
    EXPECT_EQ(f.spans[i].id, i + 1);
    EXPECT_EQ(f.spans[i].trace, s.trace);
    EXPECT_EQ(f.spans[i].parent, s.parent);
    EXPECT_EQ(f.spans[i].phase, des::span_phase_name(s.phase));
    EXPECT_EQ(f.spans[i].name, t.name(s));
    EXPECT_EQ(f.spans[i].begin_ps, s.begin.ps());
    EXPECT_EQ(f.spans[i].end_ps, s.end.ps());
    EXPECT_EQ(f.spans[i].status, SpanTracer::status_name(s.status));
  }
}

TEST(TraceTest, ReadRejectsGarbage) {
  expect_rejects("not a trace file", "not a spans artifact");
}

TEST(TraceTest, ReadRejectsWrongVersion) {
  expect_rejects(patched("{\"gtw_spans\": 1,", "{\"gtw_spans\": 99,"),
                 "version");
}

TEST(TraceTest, ReadRejectsZeroRanks) {
  // Trace 0 is "not traced": no span may belong to it.
  expect_rejects(patched("{\"span\": 3, \"trace\": 1,",
                         "{\"span\": 3, \"trace\": 0,"),
                 "unlisted trace 0");
}

TEST(TraceTest, ReadRejectsAbsurdRankCount) {
  expect_rejects(patched("{\"trace\": 1,", "{\"trace\": 4294967295,"),
                 "non-sequential trace id");
}

TEST(TraceTest, ReadRejectsAbsurdStateCount) {
  // A count past 2^64 must not wrap or saturate into something plausible.
  expect_rejects(patched("{\"spans_total\": 3,",
                         "{\"spans_total\": 99999999999999999999999,"),
                 "malformed footer");
}

TEST(TraceTest, ReadRejectsAbsurdStateNameLength) {
  // A name whose escape runs off the line is malformed, not truncated into
  // a shorter name.
  expect_rejects(patched("\"name\": \"work\"", "\"name\": \"work\\u00"),
                 "malformed span line");
}

TEST(TraceTest, ReadRejectsLyingEventCountAsTruncation) {
  expect_rejects(patched("{\"spans_total\": 3,",
                         "{\"spans_total\": 1152921504606846976,"),
                 "truncated");
}

TEST(TraceTest, ReadRejectsTruncatedEventPayload) {
  std::string text = kGood;
  text.resize(text.find("\"end_ps\": 40"));  // cut into the last span line
  expect_rejects(text, "malformed span line");
}

TEST(TraceTest, ReadRejectsUnknownEventKind) {
  expect_rejects(patched("\"phase\": \"transfer\"", "\"phase\": \"teleport\""),
                 "unknown span phase");
}

TEST(TraceTest, ReadRejectsEventRankOutOfRange) {
  expect_rejects(patched("{\"span\": 3, \"trace\": 1,",
                         "{\"span\": 3, \"trace\": 2,"),
                 "unlisted trace 2");
}

TEST(TraceTest, ReadRejectsEnterStateOutOfRange) {
  expect_rejects(patched("\"parent\": 2,", "\"parent\": 7,"),
                 "not an earlier span");
}

// Corrupt numbers and links the loader used to read as 0 or accept as-is,
// after which --budget printed "(exact)" and exited 0.
TEST(SpanAnalysisTest, LoaderRejectsNonNumericFields) {
  expect_rejects(patched("\"parent\": 2,", "\"parent\": zz,"),
                 "malformed span line");
  expect_rejects(patched("\"begin_ps\": 10,", "\"begin_ps\": abc,"),
                 "malformed span line");
  expect_rejects(patched("\"begin_ps\": 20,", "\"begin_ps\": 20x,"),
                 "malformed span line");
  expect_rejects(patched("\"root\": 1,", "\"root\": -1,"),
                 "malformed trace line");
}

TEST(SpanAnalysisTest, LoaderRejectsSpanEndingBeforeItBegins) {
  expect_rejects(patched("\"end_ps\": 50,", "\"end_ps\": 5,"),
                 "span 2 ends before it begins");
  // Negative stamps would let end - begin overflow; the writer never
  // emits them.
  expect_rejects(
      patched("\"begin_ps\": 10,", "\"begin_ps\": -9223372036854775807,"),
      "span 2 begins before time 0");
}

TEST(SpanAnalysisTest, LoaderRejectsForwardOrCyclicParent) {
  expect_rejects(patched("\"parent\": 2,", "\"parent\": 3,"),
                 "span 3 has parent 3, not an earlier span");
  expect_rejects(patched("{\"span\": 2, \"trace\": 1, \"parent\": 1,",
                         "{\"span\": 2, \"trace\": 1, \"parent\": 3,"),
                 "span 2 has parent 3, not an earlier span");
}

TEST(SpanAnalysisTest, LoaderRejectsParentFromAnotherTrace) {
  expect_rejects(R"({"gtw_spans": 1, "label": "t"}
{"trace": 1, "root": 1, "origin": "o", "status": "closed"}
{"trace": 2, "root": 2, "origin": "p", "status": "closed"}
{"span": 1, "trace": 1, "parent": 0, "phase": "root", "layer": "trace", "name": "o", "begin_ps": 0, "end_ps": 100, "status": "ok"}
{"span": 2, "trace": 2, "parent": 0, "phase": "root", "layer": "trace", "name": "p", "begin_ps": 0, "end_ps": 100, "status": "ok"}
{"span": 3, "trace": 2, "parent": 1, "phase": "compute", "layer": "flow", "name": "work", "begin_ps": 10, "end_ps": 50, "status": "ok"}
{"spans_total": 3, "traces_total": 2, "open_spans": 0}
)",
                 "span 3 has parent 1 from another trace");
}

TEST(SpanAnalysisTest, LoaderRejectsRootThatIsNotAParentlessSpanOfItsTrace) {
  expect_rejects(patched("\"root\": 1,", "\"root\": 2,"),
                 "trace 1 has root 2, not a parentless span of its own");
  expect_rejects(patched("\"root\": 1,", "\"root\": 9,"),
                 "trace 1 has root 9");
}

TEST(SpanAnalysisTest, LoaderRejectsUnknownStatus) {
  expect_rejects(patched("\"status\": \"closed\"", "\"status\": \"done\""),
                 "unknown trace status \"done\"");
  expect_rejects(patched("\"end_ps\": 40, \"status\": \"ok\"",
                         "\"end_ps\": 40, \"status\": \"fine\""),
                 "unknown span status \"fine\"");
}

// --- VAMPIR views -----------------------------------------------------------

TEST(TraceTest, StateTimesAttributed) {
  // Track time is the sum of the track's closed compute spans, in exact
  // integer picoseconds; spans still open contribute nothing.
  SpanTracer t;
  const des::TraceContext a = t.mint("a", ps(0));
  const std::uint64_t c1 =
      t.begin_span(a, SpanPhase::kCompute, "app", "compute", ps(0));
  const std::uint64_t comm =
      t.begin_span(des::under(a, c1), SpanPhase::kCompute, "app", "comm",
                   ps(2'000));
  t.end_span(comm, ps(3'000));
  t.end_span(c1, ps(5'000));
  t.close_trace(a, ps(5'000));
  const des::TraceContext b = t.mint("b", ps(1'000));
  t.end_span(t.begin_span(b, SpanPhase::kCompute, "app", "compute",
                          ps(1'000)),
             ps(4'000));
  t.begin_span(b, SpanPhase::kCompute, "app", "comm", ps(4'500));  // open

  const TrackViews v = track_views(artifact_of(t));
  ASSERT_EQ(v.tracks, (std::vector<std::string>{"app/compute", "app/comm"}));
  EXPECT_EQ(v.busy_ps[0], 5'000 + 3'000);
  EXPECT_EQ(v.busy_ps[1], 1'000);
}

TEST(TraceTest, MessageMatrix) {
  // Trace a: solve sends a message (a transfer with a nested leg, counted
  // once) to the next compute span, advect.  Trace b: advect sends to
  // solve, then a last transfer with no later compute span is unmatched.
  SpanTracer t;
  const des::TraceContext a = t.mint("a", ps(0));
  const std::uint64_t solve =
      t.begin_span(a, SpanPhase::kCompute, "gw", "solve", ps(0));
  const std::uint64_t msg = t.begin_span(des::under(a, solve),
                                         SpanPhase::kTransfer, "meta", "msg",
                                         ps(10));
  const std::uint64_t leg = t.begin_span(des::under(a, msg),
                                         SpanPhase::kTransfer, "tcp", "msg",
                                         ps(10));
  t.end_span(solve, ps(10));
  t.end_span(leg, ps(20));
  t.end_span(msg, ps(20));
  t.end_span(t.begin_span(a, SpanPhase::kCompute, "gw", "advect", ps(20)),
             ps(30));
  t.close_trace(a, ps(30));

  const des::TraceContext b = t.mint("b", ps(40));
  const std::uint64_t advect =
      t.begin_span(b, SpanPhase::kCompute, "gw", "advect", ps(40));
  t.end_span(t.begin_span(des::under(b, advect), SpanPhase::kTransfer, "tcp",
                          "msg", ps(45)),
             ps(50));
  t.end_span(advect, ps(45));
  t.end_span(t.begin_span(b, SpanPhase::kCompute, "gw", "solve", ps(50)),
             ps(60));
  t.end_span(t.begin_span(b, SpanPhase::kTransfer, "tcp", "msg", ps(60)),
             ps(70));
  t.close_trace(b, ps(70));

  const TrackViews v = track_views(artifact_of(t));
  ASSERT_EQ(v.tracks, (std::vector<std::string>{"gw/solve", "gw/advect"}));
  EXPECT_EQ(v.messages[0][1], 1u);
  EXPECT_EQ(v.messages[1][0], 1u);
  EXPECT_EQ(v.messages[0][0], 0u);
  EXPECT_EQ(v.messages[1][1], 0u);
  EXPECT_EQ(v.unmatched, 1u);
}

TEST(TraceTest, GanttRendersStates) {
  SpanTracer t;
  const des::TraceContext a = t.mint("a", ps(0));
  t.end_span(t.begin_span(a, SpanPhase::kCompute, "flow", "alpha", ps(0)),
             ps(1'000));
  t.end_span(t.begin_span(a, SpanPhase::kCompute, "flow", "beta", ps(500)),
             ps(1'000));
  t.close_trace(a, ps(1'000));
  std::ostringstream os;
  write_gantt(os, artifact_of(t), 40);
  const std::string g = os.str();
  // alpha covers every column; beta the second half.
  EXPECT_NE(g.find("flow/alpha |" + std::string(40, '#') + "|"),
            std::string::npos)
      << g;
  EXPECT_NE(g.find("flow/beta  |" + std::string(20, '.') +
                   std::string(20, '#') + "|"),
            std::string::npos)
      << g;
  EXPECT_NE(g.find("timeline 0 .. 1000 ps, 40 column(s)"), std::string::npos)
      << g;
}

TEST(TraceTest, ProfileMentionsStatesAndMessages) {
  const TrackViews v = track_views(load_ok(kGood));
  std::ostringstream prof, matrix;
  write_profile(prof, v);
  write_msg_matrix(matrix, v);
  EXPECT_NE(prof.str().find("flow/work"), std::string::npos) << prof.str();
  EXPECT_NE(prof.str().find(" 40\n"), std::string::npos) << prof.str();
  // kGood's one transfer has no compute span after it.
  EXPECT_NE(matrix.str().find("1 transfer(s) without a compute track"),
            std::string::npos)
      << matrix.str();
}

}  // namespace
}  // namespace gtw::obs
