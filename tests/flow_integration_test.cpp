// Integration coverage for the dataflow engine as deployed: the fMRI
// pipeline (fire), the workbench frame streamer (viz) and the section-5
// apps (video, traffic) all run on flow::StageGraph, so each must expose
// coherent per-stage metrics and, under a span tracer, one compute track
// per stage in the VAMPIR views of the spans artifact.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/traffic.hpp"
#include "apps/video.hpp"
#include "fire/pipeline.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"
#include "testbed/extensions.hpp"
#include "testbed/testbed.hpp"
#include "viz/workbench.hpp"

namespace gtw {
namespace {

// The run's spans artifact, read back the way gtw-trace reads it.
obs::SpanFile artifact_of(const obs::SpanTracer& spans) {
  std::stringstream buf;
  spans.write_json(buf, "flow_integration");
  obs::SpanFile f;
  std::string error;
  EXPECT_TRUE(obs::load_spans(buf, "flow_integration", f, error)) << error;
  return f;
}

// Closed compute spans on one track ("layer/name").
int compute_spans(const obs::SpanFile& f, const std::string& track) {
  int n = 0;
  for (const obs::SpanRec& s : f.spans)
    if (s.phase == "compute" && s.status == "ok" &&
        s.layer + "/" + s.name == track)
      ++n;
  return n;
}

TEST(FlowIntegrationTest, FirePipelineStagesTraceAndMeter) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  obs::SpanTracer spans;  // outlives the pipeline's transports
  tb.scheduler().set_span_hook(&spans);
  fire::PipelineConfig cfg;
  cfg.n_scans = 6;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  pipe.start();
  tb.scheduler().run();

  const fire::PipelineResult res = pipe.result();
  EXPECT_EQ(res.records.size(), 6u);
  // Every scan passes every stage once (TR = 3 s keeps up, nothing skipped).
  const flow::MetricsRegistry& m = pipe.metrics();
  ASSERT_EQ(m.stages().size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(m.stage(s).items_in, 6u) << m.stage(s).name;
    EXPECT_EQ(m.stage(s).items_out, 6u) << m.stage(s).name;
    EXPECT_EQ(m.stage(s).dropped, 0u) << m.stage(s).name;
  }
  EXPECT_EQ(m.admitted, 6u);
  EXPECT_EQ(m.completed, 6u);
  EXPECT_EQ(m.admission_dropped, 0u);
  // The compute stage's integrated busy time is n_scans * compute_time.
  EXPECT_EQ(m.stage(1).busy, pipe.compute_time(cfg.t3e_pes) * 6);

  // Spans: one closed compute span per scan on each of the four stage
  // tracks, and the transfer/return stages' TCP messages land on the next
  // stage's track.
  const obs::SpanFile f = artifact_of(spans);
  const obs::TrackViews v = obs::track_views(f);
  ASSERT_EQ(v.tracks, (std::vector<std::string>{"flow/transfer",
                                                 "flow/compute", "flow/return",
                                                 "flow/display"}));
  for (const std::string& track : v.tracks)
    EXPECT_EQ(compute_spans(f, track), 6) << track;
  EXPECT_EQ(v.messages[0][1], 6u);  // transfer -> compute
  EXPECT_EQ(v.messages[2][3], 6u);  // return -> display
  EXPECT_EQ(v.messages[1][2], 0u);
  EXPECT_EQ(v.unmatched, 0u);

  // Leak census at drain: the whole pipeline (timers, transfers, stage
  // wakeups) returned every event-pool slot it ever acquired.
  EXPECT_EQ(tb.scheduler().pool_in_use(),
            tb.scheduler().live_events() + tb.scheduler().cancelled_entries());
}

TEST(FlowIntegrationTest, FireSequentialSkipsShowUpAsAdmissionDrops) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  fire::PipelineConfig cfg;
  cfg.tr_s = 1.5;  // faster than the 2.7 s loop: the client must skip scans
  cfg.n_scans = 12;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  pipe.start();
  tb.scheduler().run();
  const fire::PipelineResult res = pipe.result();
  EXPECT_GT(res.scans_skipped, 0);
  EXPECT_EQ(pipe.metrics().admission_dropped,
            static_cast<std::uint64_t>(res.scans_skipped));
  EXPECT_EQ(pipe.metrics().completed + pipe.metrics().admission_dropped,
            static_cast<std::uint64_t>(cfg.n_scans));
}

TEST(FlowIntegrationTest, FireTraceFeedsMultiRankGanttAndProfile) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  obs::SpanTracer spans;  // outlives the pipeline's transports
  tb.scheduler().set_span_hook(&spans);
  fire::PipelineConfig cfg;
  cfg.n_scans = 6;
  fire::FmriPipeline pipe(
      tb.scheduler(),
      {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()}, cfg);
  pipe.start();
  tb.scheduler().run();

  // Round-trip through the spans artifact, then render the per-track views.
  const obs::SpanFile f = artifact_of(spans);
  std::ostringstream gantt;
  obs::write_gantt(gantt, f, 60);
  const std::string g = gantt.str();
  for (const char* track :
       {"flow/transfer", "flow/compute", "flow/return", "flow/display"})
    EXPECT_NE(g.find(std::string("  ") + track + " "), std::string::npos) << g;
  EXPECT_NE(g.find('#'), std::string::npos) << g;

  const obs::TrackViews v = obs::track_views(f);
  std::ostringstream prof;
  obs::write_profile(prof, v);
  EXPECT_NE(prof.str().find("flow/compute"), std::string::npos);
  EXPECT_NE(prof.str().find("flow/display"), std::string::npos);
  // Profile time on the compute track matches the metrics' busy integral
  // exactly: both are sums of the same DES instants.
  ASSERT_EQ(v.tracks.at(1), "flow/compute");
  EXPECT_EQ(v.busy_ps[1], pipe.metrics().stage(1).busy.ps());
}

TEST(FlowIntegrationTest, FrameStreamerMetersRenderAndUplink) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  obs::SpanTracer spans;  // outlives the streamer's connection
  tb.scheduler().set_span_hook(&spans);
  net::TcpConfig tcp;
  tcp.mss = tb.options().atm_mtu - units::Bytes{40};
  tcp.recv_buffer = units::Bytes{1u << 20};
  viz::FrameStreamer streamer(tb.scheduler(), tb.onyx2_gmd(),
                              tb.workbench_juelich(), viz::WorkbenchFormat{},
                              viz::RenderModel{}, 10, tcp);
  streamer.start();
  tb.scheduler().run();

  EXPECT_EQ(streamer.frames_delivered(), 10);
  const flow::MetricsRegistry& m = streamer.metrics();
  ASSERT_EQ(m.stages().size(), 2u);
  EXPECT_EQ(m.stage(0).name, "render");
  EXPECT_EQ(m.stage(1).name, "uplink");
  EXPECT_EQ(m.stage(0).items_out, 10u);
  EXPECT_EQ(m.stage(1).items_out, 10u);
  // Render is double-buffered against the transfer: the uplink dominates,
  // so its occupancy is (near) 1 while render idles between frames.
  EXPECT_GT(m.stage(1).occupancy(), 0.9);
  EXPECT_LT(m.stage(0).occupancy(), m.stage(1).occupancy());

  const obs::SpanFile f = artifact_of(spans);
  const obs::TrackViews v = obs::track_views(f);
  ASSERT_EQ(v.tracks,
            (std::vector<std::string>{"flow/render", "flow/uplink"}));
  EXPECT_EQ(compute_spans(f, "flow/render"), 10);
  EXPECT_EQ(compute_spans(f, "flow/uplink"), 10);
  // One TCP message per frame leaves the uplink.  Frames pushed in one
  // burst share a trace, so each message but the last is followed there by
  // the next frame's render span; the last has no receiving track.
  EXPECT_EQ(v.messages[0][0] + v.messages[0][1], 0u);
  EXPECT_EQ(v.messages[1][0] + v.messages[1][1] + v.unmatched, 10u);
}

TEST(FlowIntegrationTest, VideoSessionCountsFramesThroughTheGraph) {
  testbed::Testbed tb{testbed::TestbedOptions{testbed::WanEra::kOc48_1998}};
  apps::D1VideoConfig cfg;
  cfg.frames = 50;
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);
  apps::D1VideoSession session(tb.onyx2_gmd(), tb.onyx2_juelich(), cfg);
  session.start();
  tb.scheduler().run();

  const apps::D1VideoReport rep = session.report();
  EXPECT_EQ(rep.frames_sent, 50u);
  const flow::MetricsRegistry& m = session.metrics();
  ASSERT_EQ(m.stages().size(), 1u);
  EXPECT_EQ(m.stage(0).name, "uplink");
  EXPECT_EQ(m.stage(0).items_out, 50u);
  EXPECT_EQ(m.completed, 50u);
  EXPECT_EQ(compute_spans(artifact_of(spans), "flow/uplink"), 50);
}

TEST(FlowIntegrationTest, TrafficVizSimulateAndPublishStages) {
  testbed::ExtendedTestbed tb;
  apps::NaschConfig cfg;
  cfg.cells = 200;
  obs::SpanTracer spans;
  tb.scheduler().set_span_hook(&spans);
  apps::DistributedTrafficViz run(tb.dlr_traffic(), tb.cologne_viz(), cfg,
                                  /*steps=*/30);
  run.start();
  tb.scheduler().run();

  const apps::TrafficVizResult& res = run.result();
  EXPECT_EQ(res.steps_simulated, 30);
  const flow::MetricsRegistry& m = run.metrics();
  ASSERT_EQ(m.stages().size(), 2u);
  EXPECT_EQ(m.stage(0).name, "simulate");
  EXPECT_EQ(m.stage(1).name, "publish");
  EXPECT_EQ(m.stage(0).items_out, 30u);
  EXPECT_EQ(m.stage(1).items_out, 30u);
  EXPECT_EQ(m.completed, 30u);
  const obs::SpanFile f = artifact_of(spans);
  EXPECT_EQ(obs::track_views(f).tracks,
            (std::vector<std::string>{"flow/simulate", "flow/publish"}));
  EXPECT_EQ(compute_spans(f, "flow/simulate"), 30);
  EXPECT_EQ(compute_spans(f, "flow/publish"), 30);
  // The metrics report is printable and names both stages.
  const std::string report = m.report();
  EXPECT_NE(report.find("simulate"), std::string::npos);
  EXPECT_NE(report.find("publish"), std::string::npos);
}

}  // namespace
}  // namespace gtw
