#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "fire/pipeline.hpp"
#include "scanner/phantom.hpp"
#include "testbed/testbed.hpp"

namespace gtw::fire {
namespace {

FmriPipeline::Hosts pipeline_hosts(testbed::Testbed& tb) {
  return {&tb.scanner_frontend(), &tb.gw_o200(), &tb.onyx2_juelich()};
}

PipelineConfig base_config() {
  PipelineConfig cfg;
  cfg.n_scans = 8;
  cfg.t3e_pes = 256;
  return cfg;
}

TEST(FmriPipelineTest, TotalDelayUnder5SecondsAt256Pes) {
  // Paper section 4: "When 256 PEs are used on the T3E, this leads to a
  // total delay of less than 5 seconds."
  testbed::Testbed tb{testbed::TestbedOptions{}};
  FmriPipeline pipe(tb.scheduler(), pipeline_hosts(tb), base_config());
  pipe.start();
  tb.scheduler().run();
  const PipelineResult res = pipe.result();
  EXPECT_GT(res.mean_total_delay_s, 3.0);
  EXPECT_LT(res.mean_total_delay_s, 5.0);
}

TEST(FmriPipelineTest, DelayBudgetComponentsMatchPaper) {
  // 1.5 s scan->server + ~1.1 s transfers/control + compute + 0.6 s display.
  testbed::Testbed tb{testbed::TestbedOptions{}};
  FmriPipeline pipe(tb.scheduler(), pipeline_hosts(tb), base_config());
  pipe.start();
  tb.scheduler().run();
  const PipelineResult res = pipe.result();
  EXPECT_NEAR(res.mean_transfer_control_s, 1.1, 0.35);
  // Compute at 256 PEs ~ 1.0 s (Table 1 total).
  EXPECT_NEAR(res.mean_compute_s, 1.0, 0.3);
}

TEST(FmriPipelineTest, SequentialThroughputIsSumOfStages) {
  // Paper: "the throughput of the application ... is the sum of the delays
  // in the RT-client and the T3E, which is 2.7 seconds in the above
  // example.  This means that the scanner can safely be operated with a
  // repetition rate of 3 seconds."
  testbed::Testbed tb{testbed::TestbedOptions{}};
  FmriPipeline pipe(tb.scheduler(), pipeline_hosts(tb), base_config());
  pipe.start();
  tb.scheduler().run();
  const PipelineResult res = pipe.result();
  EXPECT_NEAR(res.min_safe_tr_s, 2.7, 0.4);
  // At TR = 3 s the pipeline keeps up: steady-state period == TR.
  EXPECT_NEAR(res.sustained_period_s, 3.0, 0.15);
}

TEST(FmriPipelineTest, PipelinedModeRaisesThroughput) {
  // The extension the paper suggests: overlapping stages makes the period
  // the max stage time, allowing a faster scanner cadence.
  testbed::Testbed tb{testbed::TestbedOptions{}};
  PipelineConfig cfg = base_config();
  cfg.mode = PipelineMode::kPipelined;
  cfg.tr_s = 1.5;  // drive it faster than sequential could handle
  cfg.n_scans = 12;
  FmriPipeline pipe(tb.scheduler(), pipeline_hosts(tb), cfg);
  pipe.start();
  tb.scheduler().run();
  const PipelineResult res = pipe.result();
  EXPECT_LT(res.sustained_period_s, 2.0);

  // Sequential at the same cadence falls behind (period > TR).
  testbed::Testbed tb2{testbed::TestbedOptions{}};
  PipelineConfig seq = cfg;
  seq.mode = PipelineMode::kSequential;
  FmriPipeline pipe2(tb2.scheduler(), pipeline_hosts(tb2), seq);
  pipe2.start();
  tb2.scheduler().run();
  EXPECT_GT(pipe2.result().sustained_period_s, 2.3);
}

TEST(FmriPipelineTest, FewerPesRaiseComputeTime) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  PipelineConfig cfg = base_config();
  FmriPipeline pipe(tb.scheduler(), pipeline_hosts(tb), cfg);
  // Table 1: 128 PEs ~ 1.37 s, 256 PEs ~ 1.01 s.
  EXPECT_GT(pipe.compute_time(128).sec(), pipe.compute_time(256).sec());
  EXPECT_NEAR(pipe.compute_time(256).sec(), 1.01, 0.25);
  EXPECT_NEAR(pipe.compute_time(128).sec(), 1.37, 0.3);
}

TEST(FmriPipelineTest, LocalModeSkipsRvoButFitsWorkstation) {
  // The workstation-only FIRE performs the basic steps (no RVO, no motion
  // correction) within the 2 s acquisition time.
  testbed::Testbed tb{testbed::TestbedOptions{}};
  PipelineConfig cfg = base_config();
  cfg.site = ProcessingSite::kLocalWorkstation;
  cfg.enable_rvo = false;
  cfg.enable_motion = false;
  cfg.enable_filter = true;
  FmriPipeline pipe(tb.scheduler(), pipeline_hosts(tb), cfg);
  EXPECT_LT(pipe.compute_time(1).sec(), 2.0);
}

TEST(FmriPipelineTest, RvoOnWorkstationWouldBeHopeless) {
  // Conversely, the full module set on a single workstation takes minutes —
  // the reason the T3E is in the loop at all.
  testbed::Testbed tb{testbed::TestbedOptions{}};
  PipelineConfig cfg = base_config();
  cfg.site = ProcessingSite::kLocalWorkstation;
  FmriPipeline pipe(tb.scheduler(), pipeline_hosts(tb), cfg);
  EXPECT_GT(pipe.compute_time(1).sec(), 60.0);
}

TEST(FmriPipelineTest, RunsRealNumericsWhenWired) {
  testbed::Testbed tb{testbed::TestbedOptions{}};
  scanner::FmriConfig scfg;
  scfg.dims = {16, 16, 4};
  scfg.regions = {{5, 10, 2, 2.0, 0.06}};
  scfg.expected_scans = 8;
  scanner::FmriSeriesGenerator gen(scfg);

  AnalysisConfig acfg;
  acfg.stimulus = scfg.stimulus;
  acfg.hrf = scfg.hrf;
  acfg.tr_s = scfg.tr_s;
  acfg.motion_correction = false;
  AnalysisEngine engine(scfg.dims, acfg);

  PipelineConfig cfg = base_config();
  cfg.n_scans = 8;
  FmriPipeline pipe(tb.scheduler(), pipeline_hosts(tb), cfg,
                    [&gen](int t) { return gen.acquire(t); }, &engine);
  pipe.start();
  tb.scheduler().run();
  EXPECT_EQ(engine.scans(), 8);
  // All scans displayed.
  const auto res = pipe.result();
  EXPECT_GT(res.records.back().displayed.sec(), 0.0);
}

// Bit-exact golden of the FIRE numerics: perfbench's fmri_pipeline setup
// (64x64x16, 80 scans, TR 3 s, motion {0, 0.05, 0}, motion correction on)
// with a fixed seed.  Every float of every process_scan result and of the
// final correlation map feeds one FNV-1a hash of its bit pattern, so any
// rewrite of a kernel that moves a single bit fails here.  A deliberate
// numerical change updates the constants and says why in CHANGES.md.
std::uint64_t fnv1a_bits(std::uint64_t h, const VolumeF& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(v[i]);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(FireGoldenTest, EightyScanMotionCorrectedRunIsBitExact) {
  constexpr int kScans = 80;
  scanner::FmriConfig scfg;
  scfg.dims = {64, 64, 16};
  scfg.tr_s = 3.0;
  scfg.regions = {{20, 40, 8, 4.0, 0.05}};
  scfg.expected_scans = kScans;
  scfg.motion = {0.0, 0.05, 0.0};
  scfg.seed = 20260101;
  scanner::FmriSeriesGenerator gen(scfg);

  AnalysisConfig acfg;
  acfg.stimulus = scfg.stimulus;
  acfg.hrf = scfg.hrf;
  acfg.tr_s = scfg.tr_s;
  acfg.motion_correction = true;
  acfg.detrend_cfg.expected_scans = kScans;
  AnalysisEngine engine(scfg.dims, acfg);

  std::uint64_t scans = 0xcbf29ce484222325ull;
  for (int t = 0; t < kScans; ++t)
    scans = fnv1a_bits(scans, engine.process_scan(gen.acquire(t)));
  const std::uint64_t corr =
      fnv1a_bits(0xcbf29ce484222325ull, engine.correlation_map());
  EXPECT_EQ(scans, 0x7ce984aafac5e10cull) << std::hex << scans;
  EXPECT_EQ(corr, 0x7aeaccf2ec044217ull) << std::hex << corr;
}

}  // namespace
}  // namespace gtw::fire
