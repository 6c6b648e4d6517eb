// fmri_pipeline: the FIRE sequential pipeline at the paper's 64x64x16
// volumes with motion correction on.  A scanner::FmriSeriesGenerator feeds
// the RT-server -> T3E -> client pipeline through the ImageSource the
// benchmark passes in, and a real AnalysisEngine processes every scan.
#include <memory>
#include <string>

#include "fire/pipeline.hpp"
#include "reference.hpp"
#include "scanner/phantom.hpp"
#include "testbed/testbed.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace gtw;

// Four 20-scan off/on stimulus cycles: FIRE detrends incrementally, so a
// shorter series leaves too few scans for the activation to stand out.
constexpr int kScans = 80;
constexpr double kTrS = 3.0;

}  // namespace

Result run_fmri(std::uint64_t seed) {
  Result res;
  PhaseClock clock;
  std::unique_ptr<testbed::Testbed> tb;
  {
    const Span span(Layer::kTestbedBuild);
    tb = std::make_unique<testbed::Testbed>(testbed::TestbedOptions{});
  }

  // The seed drives the phantom's noise and its head-motion draws.
  scanner::FmriConfig scfg;
  scfg.dims = {64, 64, 16};
  scfg.tr_s = kTrS;
  scfg.regions = {{20, 40, 8, 4.0, 0.05}};
  scfg.expected_scans = kScans;
  scfg.motion = {0.0, 0.05, 0.0};
  scfg.seed = mix_seed(seed, 2);
  scanner::FmriSeriesGenerator gen(scfg);

  fire::AnalysisConfig acfg;
  acfg.stimulus = scfg.stimulus;
  acfg.hrf = scfg.hrf;
  acfg.tr_s = scfg.tr_s;
  acfg.motion_correction = true;
  acfg.detrend_cfg.expected_scans = kScans;
  fire::AnalysisEngine engine(scfg.dims, acfg);

  fire::PipelineConfig cfg;
  cfg.tr_s = kTrS;
  cfg.n_scans = kScans;
  cfg.t3e_pes = 256;
  fire::FmriPipeline pipe(
      tb->scheduler(),
      {&tb->scanner_frontend(), &tb->gw_o200(), &tb->onyx2_juelich()}, cfg,
      [&gen](int t) {
        const Span span(Layer::kScannerAcquire);
        return gen.acquire(t);
      },
      &engine);
  pipe.start();

  des::Scheduler& sched = tb->scheduler();
  clock.timed_begin();
  int scans_before = 0;
  run_steps(sched, [&] {
    const int now = engine.scans();
    const bool computed = now != scans_before;
    scans_before = now;
    return computed ? Layer::kFireProcessScan : Layer::kDesStep;
  });
  clock.timed_end();
  clock.add_to(res);

  const fire::PipelineResult pr = pipe.result();
  int displayed = 0;
  for (const fire::ScanRecord& r : pr.records)
    if (r.displayed > des::SimTime::zero()) ++displayed;

  // Activation peak: the voxel of highest correlation must lie in the
  // driven region.
  const fire::VolumeF corr = engine.correlation_map();
  std::size_t peak = 0;
  for (std::size_t i = 1; i < corr.size(); ++i)
    if (corr[i] > corr[peak]) peak = i;
  const bool peak_in_region = gen.activation_mask()[peak] != 0;

  res.ops = 1;
  res.events = sched.events_executed();
  res.stream_hash = sched.stream_hash();
  res.figures["mean_total_delay_s"] = pr.mean_total_delay_s;
  res.figures["scans_displayed"] = displayed;
  res.figures["peak_correlation"] = corr[peak];
  res.layer["des.pool_high_water"] =
      static_cast<double>(sched.pool_high_water());
  res.layer["des.overflow_high_water"] =
      static_cast<double>(sched.overflow_high_water());
  LinkCounts links;
  links.add(*tb);
  links.publish(res);
  res.layer["flow.admitted"] = static_cast<double>(pipe.metrics().admitted);
  res.layer["flow.dropped"] =
      static_cast<double>(pipe.metrics().admission_dropped);
  res.layer["fire.scans"] = engine.scans();

  bool ok = res.check(displayed == kScans && pr.scans_skipped == 0,
                      "fmri: " + std::to_string(displayed) + " of " +
                          std::to_string(kScans) + " scans displayed");
  ok = res.check(peak_in_region, "fmri: activation peak at voxel " +
                                     std::to_string(peak) +
                                     " lies outside the driven region") &&
       ok;
  ok = res.check(within_pct(pr.mean_total_delay_s, kRefFmriMeanDelayS,
                            kFidelityPct),
                 "fmri: mean delay " + std::to_string(pr.mean_total_delay_s) +
                     " s off the reference " +
                     std::to_string(kRefFmriMeanDelayS) + " s by >1%") &&
       ok;
  res.failed_ops = ok ? 0 : 1;
  return res;
}

}  // namespace perfbench
