#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "des/random.hpp"
#include "fire/correlation.hpp"
#include "fire/detrend.hpp"
#include "fire/filters.hpp"
#include "fire/motion.hpp"
#include "fire/reference.hpp"
#include "fire/rigid.hpp"
#include "fire/rvo.hpp"
#include "fire/volume.hpp"
#include "linalg/solve.hpp"
#include "scanner/phantom.hpp"

namespace gtw::fire {
namespace {

TEST(VolumeTest, IndexingRoundTrip) {
  VolumeF v(4, 3, 2);
  float k = 0;
  for (int z = 0; z < 2; ++z)
    for (int y = 0; y < 3; ++y)
      for (int x = 0; x < 4; ++x) v.at(x, y, z) = k++;
  EXPECT_EQ(v.size(), 24u);
  EXPECT_FLOAT_EQ(v.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(v.at(3, 2, 1), 23.0f);
  EXPECT_FLOAT_EQ(v[23], 23.0f);
}

TEST(VolumeTest, ClampedReadsEdge) {
  VolumeF v(2, 2, 2, 5.0f);
  v.at(0, 0, 0) = 1.0f;
  EXPECT_FLOAT_EQ(v.clamped(-3, -3, -3), 1.0f);
  EXPECT_FLOAT_EQ(v.clamped(9, 9, 9), 5.0f);
}

TEST(VolumeTest, TrilinearInterpolation) {
  VolumeF v(2, 2, 2);
  v.at(1, 0, 0) = 10.0f;
  // Midpoint between (0,0,0)=0 and (1,0,0)=10.
  EXPECT_NEAR(v.sample(0.5, 0.0, 0.0), 5.0, 1e-9);
  // At a lattice point, exact.
  EXPECT_NEAR(v.sample(1.0, 0.0, 0.0), 10.0, 1e-9);
}

TEST(MedianFilterTest, RemovesImpulseNoise) {
  VolumeF v(9, 9, 3, 100.0f);
  v.at(4, 4, 1) = 10000.0f;  // hot pixel
  const VolumeF out = median_filter_3x3(v);
  EXPECT_FLOAT_EQ(out.at(4, 4, 1), 100.0f);
}

TEST(MedianFilterTest, ConstantImageFixedPoint) {
  VolumeF v(8, 8, 2, 42.0f);
  const VolumeF out = median_filter_3x3(v);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_FLOAT_EQ(out[i], 42.0f);
}

TEST(AverageFilterTest, PreservesMeanOfConstant) {
  VolumeF v(6, 6, 6, 7.0f);
  const VolumeF out = average_filter_3x3x3(v);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_NEAR(out[i], 7.0f, 1e-5);
}

TEST(AverageFilterTest, SmoothsAStep) {
  VolumeF v(8, 4, 4, 0.0f);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 4; ++y)
      for (int x = 4; x < 8; ++x) v.at(x, y, z) = 90.0f;
  const VolumeF out = average_filter_3x3x3(v);
  // On the boundary the value is between the two plateaus.
  EXPECT_GT(out.at(4, 2, 2), 10.0f);
  EXPECT_LT(out.at(4, 2, 2), 80.0f);
}

TEST(ReferenceTest, HrfKernelIsNormalisedAndPeaksNearDelay) {
  const auto h = hrf_kernel(HrfParams{6.0, 2.0}, 0.1);
  const double sum = std::accumulate(h.begin(), h.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const auto peak = std::max_element(h.begin(), h.end());
  const double t_peak =
      (static_cast<double>(std::distance(h.begin(), peak)) + 0.5) * 0.1;
  EXPECT_NEAR(t_peak, 6.0, 1.0);
}

TEST(ReferenceTest, ReferenceIsZNormalised) {
  StimulusDesign stim{10, 10};
  const auto r = make_reference(stim, 100, 2.0, HrfParams{});
  double mean = std::accumulate(r.begin(), r.end(), 0.0) / 100.0;
  double var = 0;
  for (double x : r) var += (x - mean) * (x - mean);
  var /= 100.0;
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(var, 1.0, 1e-9);
}

TEST(ReferenceTest, ReferenceLagsStimulus) {
  StimulusDesign stim{10, 10};
  const auto s = stim.series(60);
  const auto r = make_reference(stim, 60, 2.0, HrfParams{6.0, 2.0});
  // The hemodynamic delay shifts the response: correlation of the reference
  // with a lagged stimulus beats correlation with the instantaneous one.
  auto corr_at_lag = [&](int lag) {
    linalg::Vector a, b;
    for (int i = lag; i < 60; ++i) {
      a.push_back(s[static_cast<std::size_t>(i - lag)]);
      b.push_back(r[static_cast<std::size_t>(i)]);
    }
    return linalg::pearson(a, b);
  };
  EXPECT_GT(corr_at_lag(3), corr_at_lag(0));  // 3 scans x 2 s = 6 s lag
}

TEST(ZNormaliseTest, ZeroVarianceBecomesZeros) {
  std::vector<double> v{5.0, 5.0, 5.0};
  z_normalise(v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(IncrementalCorrelationTest, DetectsPerfectlyCorrelatedVoxel) {
  const Dims d{4, 4, 2};
  IncrementalCorrelation corr(d);
  StimulusDesign stim{5, 5};
  const auto ref = make_reference(stim, 40, 2.0, HrfParams{});
  des::Rng rng(3);
  for (int t = 0; t < 40; ++t) {
    VolumeF img(d);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(rng.normal(100.0, 1.0));
    img.at(0, 0, 0) = static_cast<float>(
        100.0 + 10.0 * ref[static_cast<std::size_t>(t)]);  // driven voxel
    corr.add_scan(img, ref[static_cast<std::size_t>(t)]);
  }
  const VolumeF map = corr.correlation_map();
  EXPECT_GT(map.at(0, 0, 0), 0.99f);
  // A noise voxel stays low.
  EXPECT_LT(std::abs(map.at(3, 3, 1)), 0.5f);
}

TEST(IncrementalCorrelationTest, BoundedByOne) {
  const Dims d{2, 2, 1};
  IncrementalCorrelation corr(d);
  des::Rng rng(5);
  for (int t = 0; t < 30; ++t) {
    VolumeF img(d);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(rng.normal());
    corr.add_scan(img, rng.normal());
  }
  const VolumeF map = corr.correlation_map();
  for (std::size_t i = 0; i < map.size(); ++i) {
    EXPECT_LE(map[i], 1.0f);
    EXPECT_GE(map[i], -1.0f);
  }
}

TEST(IncrementalCorrelationTest, AffineInvariance) {
  // r is invariant to per-voxel affine rescaling of the signal.
  const Dims d{1, 1, 1};
  IncrementalCorrelation a(d), b(d);
  des::Rng rng(7);
  for (int t = 0; t < 25; ++t) {
    const double y = rng.normal();
    const double x = 0.8 * y + 0.2 * rng.normal();
    VolumeF va(d), vb(d);
    va[0] = static_cast<float>(x);
    vb[0] = static_cast<float>(5.0 * x + 300.0);
    a.add_scan(va, y);
    b.add_scan(vb, y);
  }
  EXPECT_NEAR(a.correlation_at(0), b.correlation_at(0), 1e-5);
}

// Exact properties of the correlation kernel.  The reference values are
// floats, so a voxel can hold them exactly and its running sums then equal
// the reference's term for term.
std::vector<double> float_series(std::uint64_t seed, int n) {
  des::Rng rng(seed);
  std::vector<double> v;
  for (int t = 0; t < n; ++t)
    v.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
  return v;
}

double correlation_of(const std::vector<double>& voxel,
                      const std::vector<double>& ref) {
  IncrementalCorrelation corr(Dims{1, 1, 1});
  VolumeF img(Dims{1, 1, 1});
  for (std::size_t t = 0; t < ref.size(); ++t) {
    img[0] = static_cast<float>(voxel[t]);
    corr.add_scan(img, ref[t]);
  }
  EXPECT_EQ(corr.correlation_map()[0],
            static_cast<float>(corr.correlation_at(0)));
  return corr.correlation_at(0);
}

TEST(IncrementalCorrelationTest, SeriesEqualToReferenceIsExactlyOne) {
  const auto ref = float_series(21, 40);
  EXPECT_EQ(correlation_of(ref, ref), 1.0);
}

TEST(IncrementalCorrelationTest, NegatedSeriesIsExactlyMinusOne) {
  const auto ref = float_series(22, 40);
  std::vector<double> neg;
  for (double r : ref) neg.push_back(-r);
  EXPECT_EQ(correlation_of(neg, ref), -1.0);
}

TEST(IncrementalCorrelationTest, IndependentSeriesAreBelowOne) {
  const double r = correlation_of(float_series(23, 40), float_series(24, 40));
  EXPECT_LT(r, 1.0);
  EXPECT_GT(r, -1.0);
}

TEST(IncrementalCorrelationTest, ConstantVoxelReadsZero) {
  const auto ref = float_series(25, 40);
  EXPECT_EQ(correlation_of(std::vector<double>(ref.size(), 100.0), ref), 0.0);
}

TEST(DetrendTest, RemovesLinearDrift) {
  const Dims d{3, 3, 1};
  IncrementalDetrend det(d, DetrendConfig{1, false, 50});
  double last_residual = 1e9;
  for (int t = 0; t < 50; ++t) {
    VolumeF img(d);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(100.0 + 2.5 * t);  // pure drift
    const VolumeF out = det.add_scan(img);
    last_residual = out[0];
  }
  EXPECT_NEAR(last_residual, 0.0, 1e-3);
}

TEST(DetrendTest, RemovesCosineDrift) {
  const Dims d{2, 2, 1};
  IncrementalDetrend det(d, DetrendConfig{1, true, 64});
  double residual_sum = 0.0;
  for (int t = 0; t < 64; ++t) {
    VolumeF img(d);
    const double u = t / 63.0;
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] = static_cast<float>(50.0 + 8.0 * std::cos(M_PI * u));
    const VolumeF out = det.add_scan(img);
    if (t > 10) residual_sum += std::abs(out[0]);
  }
  EXPECT_LT(residual_sum / 53.0, 0.05);
}

TEST(DetrendTest, PreservesStimulusLockedSignalUnderDrift) {
  // Under a strong baseline drift, detrending must clearly improve the
  // correlation with the reference relative to the raw signal (causal
  // streaming detrending distorts the first cycles, so the comparison —
  // not perfection — is the invariant).
  const Dims d{1, 1, 1};
  StimulusDesign stim{8, 8};
  const auto ref = make_reference(stim, 96, 2.0, HrfParams{});
  IncrementalDetrend det(d, DetrendConfig{1, true, 96});
  IncrementalCorrelation corr_det(d), corr_raw(d);
  for (int t = 0; t < 96; ++t) {
    VolumeF img(d);
    img[0] = static_cast<float>(200.0 + 30.0 * t / 95.0 +
                                5.0 * ref[static_cast<std::size_t>(t)]);
    corr_raw.add_scan(img, ref[static_cast<std::size_t>(t)]);
    corr_det.add_scan(det.add_scan(img), ref[static_cast<std::size_t>(t)]);
  }
  EXPECT_GT(corr_det.correlation_at(0), 0.6);
  EXPECT_GT(corr_det.correlation_at(0), corr_raw.correlation_at(0) + 0.05);
}

TEST(RigidTest, IdentityTransformIsNoop) {
  const VolumeF v = scanner::make_head_phantom(Dims{16, 16, 8});
  const VolumeF out = resample(v, RigidTransform{});
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(out[i], v[i], 1e-4);
}

TEST(RigidTest, TranslationShiftsContent) {
  VolumeF v(8, 8, 4, 0.0f);
  v.at(4, 4, 2) = 100.0f;
  RigidTransform t;
  t.tx = 1.0;  // output voxel x reads source x+1
  const VolumeF out = resample(v, t);
  EXPECT_NEAR(out.at(3, 4, 2), 100.0f, 1e-3);
}

TEST(RigidTest, InverseApproxUndoesSmallMotion) {
  const VolumeF v = scanner::make_head_phantom(Dims{24, 24, 12});
  RigidTransform t{0.6, -0.4, 0.2, 0.01, -0.015, 0.02};
  // Geometric property: composing the transform with its first-order
  // inverse moves points by at most O(|theta|^2 * radius).
  const Dims d = v.dims();
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;
  const RigidTransform inv = t.inverse_approx();
  double worst = 0.0;
  for (int z = 0; z < d.nz; z += 3) {
    for (int y = 0; y < d.ny; y += 4) {
      for (int x = 0; x < d.nx; x += 4) {
        double mx, my, mz, bx, by, bz;
        t.apply(cx, cy, cz, x, y, z, mx, my, mz);
        inv.apply(cx, cy, cz, mx, my, mz, bx, by, bz);
        const double err = std::sqrt((bx - x) * (bx - x) +
                                     (by - y) * (by - y) +
                                     (bz - z) * (bz - z));
        worst = std::max(worst, err);
      }
    }
  }
  EXPECT_LT(worst, 0.05);  // ~ (0.02 rad)^2 * 17 voxel radius
}

TEST(MotionTest, RecoversInjectedTranslation) {
  const VolumeF ref = scanner::make_head_phantom(Dims{32, 32, 12});
  RigidTransform injected;
  injected.tx = 0.8;
  injected.ty = -0.5;
  const VolumeF moved = resample(ref, injected);

  MotionCorrector mc(ref);
  const MotionResult res = mc.correct(moved);
  // The estimate aligns `moved` back to `ref`, i.e. ~ inverse of injected.
  EXPECT_NEAR(res.estimate.tx, -0.8, 0.1);
  EXPECT_NEAR(res.estimate.ty, 0.5, 0.1);
  EXPECT_LT(res.final_rmse, res.initial_rmse * 0.3);
}

TEST(MotionTest, RecoversInjectedRotation) {
  const VolumeF ref = scanner::make_head_phantom(Dims{32, 32, 12});
  RigidTransform injected;
  injected.rz = 0.03;  // ~1.7 degrees
  const VolumeF moved = resample(ref, injected);
  MotionCorrector mc(ref);
  const MotionResult res = mc.correct(moved);
  EXPECT_NEAR(res.estimate.rz, -0.03, 0.01);
  EXPECT_LT(std::abs(res.estimate.tx), 0.2);
}

TEST(MotionTest, IdentityInputYieldsNearZeroEstimate) {
  const VolumeF ref = scanner::make_head_phantom(Dims{24, 24, 8});
  MotionCorrector mc(ref);
  const MotionResult res = mc.correct(ref);
  EXPECT_LT(res.estimate.max_abs(), 1e-3);
}

TEST(RvoTest, RecoversGroundTruthDelay) {
  // One voxel driven by an HRF with delay 7.5 s; RVO's raster must pick a
  // delay near it and beat the default-delay correlation.
  const Dims d{4, 4, 1};
  StimulusDesign stim{8, 8};
  const double tr = 2.0;
  const HrfParams truth{7.5, 2.0};
  const auto resp = make_reference(stim, 64, tr, truth);

  std::vector<VolumeF> series;
  des::Rng rng(11);
  for (int t = 0; t < 64; ++t) {
    VolumeF img(d, 100.0f);
    for (std::size_t i = 0; i < img.size(); ++i)
      img[i] += static_cast<float>(rng.normal(0.0, 0.3));
    img.at(1, 1, 0) = static_cast<float>(
        100.0 + 5.0 * resp[static_cast<std::size_t>(t)]);
    series.push_back(img);
  }

  RvoConfig cfg;
  cfg.delay_steps = 13;
  cfg.disp_steps = 7;
  RvoAnalyzer rvo(d, stim, tr, cfg);
  const RvoResult res = rvo.analyze(series);
  const std::size_t idx = 1 * 4 + 1;
  EXPECT_GT(res.fits[idx].best_correlation, 0.95f);
  EXPECT_NEAR(res.fits[idx].delay_s, 7.5, 1.0);
}

TEST(RvoTest, CoarseRefineFindsSameOptimumWithFewerEvaluations) {
  const Dims d{4, 4, 1};
  StimulusDesign stim{8, 8};
  const double tr = 2.0;
  const auto resp = make_reference(stim, 48, tr, HrfParams{5.0, 1.5});
  std::vector<VolumeF> series;
  for (int t = 0; t < 48; ++t) {
    VolumeF img(d, 100.0f);
    img.at(2, 2, 0) = static_cast<float>(
        100.0 + 4.0 * resp[static_cast<std::size_t>(t)]);
    series.push_back(img);
  }

  RvoConfig full;
  full.delay_steps = 12;
  full.disp_steps = 12;
  RvoConfig coarse = full;
  coarse.mode = RvoMode::kCoarseRefine;

  const RvoResult rf = RvoAnalyzer(d, stim, tr, full).analyze(series);
  const RvoResult rc = RvoAnalyzer(d, stim, tr, coarse).analyze(series);
  const std::size_t idx = 2 * 4 + 2;
  EXPECT_LT(rc.reference_evaluations, rf.reference_evaluations);
  EXPECT_NEAR(rc.fits[idx].best_correlation, rf.fits[idx].best_correlation,
              0.02);
  EXPECT_NEAR(rc.fits[idx].delay_s, rf.fits[idx].delay_s, 1.0);
}

TEST(RvoTest, MasksAirVoxels) {
  const Dims d{4, 4, 1};
  StimulusDesign stim{5, 5};
  std::vector<VolumeF> series;
  for (int t = 0; t < 20; ++t) {
    VolumeF img(d, 0.0f);     // everything air...
    img.at(0, 0, 0) = 500.0f; // ...except one bright voxel
    series.push_back(img);
  }
  const RvoResult res = RvoAnalyzer(d, stim, 2.0, RvoConfig{}).analyze(series);
  // Air voxels were skipped entirely.
  EXPECT_EQ(res.fits[5].best_correlation, 0.0f);
  EXPECT_LT(res.reference_evaluations, 120u);  // ~1 voxel x grid
}

// --- bit-exact equivalence of the fast kernels ------------------------------
//
// The clamp-only kernels as they stood before the trig hoisting, the integer
// floor, the interior paths and the median network.  Each fast kernel must
// reproduce its oracle bit for bit; FireGoldenTest pins the same claim on one
// 80-scan run, these pin it kernel by kernel and at the borders.
namespace oracle {

void apply(const RigidTransform& t, double cx, double cy, double cz, double x,
           double y, double z, double& ox, double& oy, double& oz) {
  double px = x - cx, py = y - cy, pz = z - cz;
  {
    const double c = std::cos(t.rx), s = std::sin(t.rx);
    const double ny = c * py - s * pz, nz = s * py + c * pz;
    py = ny;
    pz = nz;
  }
  {
    const double c = std::cos(t.ry), s = std::sin(t.ry);
    const double nx = c * px + s * pz, nz = -s * px + c * pz;
    px = nx;
    pz = nz;
  }
  {
    const double c = std::cos(t.rz), s = std::sin(t.rz);
    const double nx = c * px - s * py, ny = s * px + c * py;
    px = nx;
    py = ny;
  }
  ox = px + cx + t.tx;
  oy = py + cy + t.ty;
  oz = pz + cz + t.tz;
}

double sample(const VolumeF& v, double x, double y, double z) {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const int z0 = static_cast<int>(std::floor(z));
  const double fx = x - x0, fy = y - y0, fz = z - z0;
  double acc = 0.0;
  for (int dz = 0; dz <= 1; ++dz) {
    const double wz = dz != 0 ? fz : 1.0 - fz;
    if (wz == 0.0) continue;
    for (int dy = 0; dy <= 1; ++dy) {
      const double wy = dy != 0 ? fy : 1.0 - fy;
      if (wy == 0.0) continue;
      for (int dx = 0; dx <= 1; ++dx) {
        const double wx = dx != 0 ? fx : 1.0 - fx;
        if (wx == 0.0) continue;
        acc += wx * wy * wz *
               static_cast<double>(v.clamped(x0 + dx, y0 + dy, z0 + dz));
      }
    }
  }
  return acc;
}

VolumeF resample(const VolumeF& src, const RigidTransform& t) {
  const Dims d = src.dims();
  VolumeF out(d);
  const double cx = (d.nx - 1) / 2.0;
  const double cy = (d.ny - 1) / 2.0;
  const double cz = (d.nz - 1) / 2.0;
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        double sx, sy, sz;
        apply(t, cx, cy, cz, x, y, z, sx, sy, sz);
        out.at(x, y, z) = static_cast<float>(sample(src, sx, sy, sz));
      }
    }
  }
  return out;
}

VolumeF median_filter_3x3(const VolumeF& in) {
  const Dims d = in.dims();
  VolumeF out(d);
  std::array<float, 9> window;
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        int n = 0;
        for (int dy = -1; dy <= 1; ++dy)
          for (int dx = -1; dx <= 1; ++dx)
            window[static_cast<std::size_t>(n++)] =
                in.clamped(x + dx, y + dy, z);
        std::nth_element(window.begin(), window.begin() + 4, window.end());
        out.at(x, y, z) = window[4];
      }
    }
  }
  return out;
}

VolumeF average_filter_3x3x3(const VolumeF& in) {
  const Dims d = in.dims();
  VolumeF out(d);
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x) {
        double acc = 0.0;
        for (int dz = -1; dz <= 1; ++dz)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx)
              acc += in.clamped(x + dx, y + dy, z + dz);
        out.at(x, y, z) = static_cast<float>(acc / 27.0);
      }
    }
  }
  return out;
}

}  // namespace oracle

const std::array<Dims, 5> kEquivalenceDims = {
    Dims{1, 1, 1}, Dims{2, 3, 1}, Dims{3, 3, 3}, Dims{5, 4, 2},
    Dims{64, 64, 16}};

// Values of both signs with coarse mantissas at exponents 2^-60 .. 2^60.
// Float inputs close in magnitude sum exactly in double, in any order; only
// exact cancellations between the large terms let a reordered accumulation
// change the float result, and these values make such cancellations common.
VolumeF random_volume(Dims d, std::uint64_t seed) {
  des::Rng rng(seed);
  VolumeF v(d);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double mantissa =
        1.0 + static_cast<double>(rng.uniform_int(4)) / 4.0;
    const int exponent = 30 * static_cast<int>(rng.uniform_int(5)) - 60;
    v[i] = static_cast<float>((rng.bernoulli(0.5) ? -1.0 : 1.0) *
                              std::ldexp(mantissa, exponent));
  }
  return v;
}

bool same_bits(const VolumeF& a, const VolumeF& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data().data(), b.data().data(), a.size_bytes()) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Per-axis probe coordinates: on each face, just inside and just outside
// it, exact integers, negative values and values at or beyond n - 1.
std::vector<double> probe_coordinates(int n) {
  const double hi = n - 1;
  return {-3.7,
          -1.0,
          -0.5,
          -1e-9,
          -0.0,
          0.0,
          1e-9,
          0.5,
          hi / 2.0,
          std::nextafter(hi, -1.0),
          hi,
          std::nextafter(hi, hi + 1.0),
          hi + 1e-9,
          hi + 0.5,
          hi + 1,
          hi + 2.3};
}

TEST(FireKernelEquivalenceTest, SampleMatchesClampedOracleBitwise) {
  std::uint64_t seed = 100;
  for (const Dims& d : kEquivalenceDims) {
    const VolumeF v = random_volume(d, seed++);
    const auto xs = probe_coordinates(d.nx);
    const auto ys = probe_coordinates(d.ny);
    const auto zs = probe_coordinates(d.nz);
    for (double z : zs)
      for (double y : ys)
        for (double x : xs)
          ASSERT_TRUE(same_bits(v.sample(x, y, z), oracle::sample(v, x, y, z)))
              << "dims " << d.nx << "x" << d.ny << "x" << d.nz << " at (" << x
              << ", " << y << ", " << z << ")";
    des::Rng rng(seed++);
    for (int i = 0; i < 20000; ++i) {
      const double x = rng.uniform(-2.0, d.nx + 1.0);
      const double y = rng.uniform(-2.0, d.ny + 1.0);
      const double z = rng.uniform(-2.0, d.nz + 1.0);
      ASSERT_TRUE(same_bits(v.sample(x, y, z), oracle::sample(v, x, y, z)))
          << "dims " << d.nx << "x" << d.ny << "x" << d.nz << " at (" << x
          << ", " << y << ", " << z << ")";
    }
  }
}

TEST(FireKernelEquivalenceTest, ApplyMatchesPerCallTrigOracleBitwise) {
  const RigidTransform t{0.6, -0.4, 0.2, 0.01, -0.015, 0.02};
  des::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(-5, 70), y = rng.uniform(-5, 70),
                 z = rng.uniform(-5, 20);
    double ax, ay, az, bx, by, bz;
    t.apply(31.5, 31.5, 7.5, x, y, z, ax, ay, az);
    oracle::apply(t, 31.5, 31.5, 7.5, x, y, z, bx, by, bz);
    ASSERT_TRUE(same_bits(ax, bx) && same_bits(ay, by) && same_bits(az, bz));
  }
}

TEST(FireKernelEquivalenceTest, ResampleMatchesPerVoxelApplyAndSample) {
  const std::array<RigidTransform, 5> transforms = {
      RigidTransform{},
      RigidTransform{1.0, 0.0, -2.0, 0.0, 0.0, 0.0},  // integer shift
      RigidTransform{0.6, -0.4, 0.2, 0.01, -0.015, 0.02},
      RigidTransform{0.0, 0.05, 0.0, 0.0, 0.0, 0.0},
      RigidTransform{3.2, -1.5, 0.7, 0.4, -0.3, 1.1}};
  std::uint64_t seed = 200;
  for (const Dims& d : kEquivalenceDims) {
    const VolumeF v = random_volume(d, seed++);
    VolumeF reused(Dims{2, 2, 2});  // wrong dims: resample_into resizes it
    for (const RigidTransform& t : transforms) {
      const VolumeF want = oracle::resample(v, t);
      EXPECT_TRUE(same_bits(resample(v, t), want))
          << "dims " << d.nx << "x" << d.ny << "x" << d.nz;
      resample_into(v, t, reused);
      EXPECT_TRUE(same_bits(reused, want))
          << "dims " << d.nx << "x" << d.ny << "x" << d.nz;
    }
  }
}

TEST(FireKernelEquivalenceTest, FiltersMatchClampedOraclesBitwise) {
  std::uint64_t seed = 300;
  for (const Dims& d : kEquivalenceDims) {
    const VolumeF v = random_volume(d, seed++);
    EXPECT_TRUE(same_bits(median_filter_3x3(v), oracle::median_filter_3x3(v)))
        << "dims " << d.nx << "x" << d.ny << "x" << d.nz;
    EXPECT_TRUE(
        same_bits(average_filter_3x3x3(v), oracle::average_filter_3x3x3(v)))
        << "dims " << d.nx << "x" << d.ny << "x" << d.nz;
  }
}

// Runs every 9-value window through the median filter as the centre voxel
// of its own 3x3 slice (one slice per window, a batch of slices per volume)
// and compares it with std::nth_element by value.  When -0 and +0 tie for
// the median, the sign std::nth_element returns is unspecified, so the
// comparison is ==, under which -0 equals +0.
template <typename NextWindow>
void expect_median_matches_nth_element(std::size_t windows,
                                       NextWindow next_window) {
  constexpr int kBatch = 4096;
  std::array<float, 9> w;
  for (std::size_t done = 0; done < windows;) {
    const int nz = static_cast<int>(
        std::min<std::size_t>(kBatch, windows - done));
    VolumeF v(Dims{3, 3, nz});
    for (int z = 0; z < nz; ++z) {
      next_window(w);
      std::copy(w.begin(), w.end(), &v.data()[static_cast<std::size_t>(z) * 9]);
    }
    const VolumeF out = median_filter_3x3(v);
    for (int z = 0; z < nz; ++z) {
      std::copy_n(&v.data()[static_cast<std::size_t>(z) * 9], 9, w.begin());
      std::nth_element(w.begin(), w.begin() + 4, w.end());
      ASSERT_EQ(out.at(1, 1, z), w[4]) << "window " << done + z;
    }
    done += static_cast<std::size_t>(nz);
  }
}

TEST(FireKernelEquivalenceTest,
     MedianNetworkMatchesNthElementOnAllPermutations) {
  std::array<float, 9> perm = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  expect_median_matches_nth_element(362880, [&](std::array<float, 9>& w) {
    w = perm;
    std::next_permutation(perm.begin(), perm.end());
  });
  EXPECT_EQ(perm, (std::array<float, 9>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(FireKernelEquivalenceTest,
     MedianNetworkMatchesNthElementWithTiesAndZeros) {
  // Every window over {-1, -0, +0, 1, 2}: 5^9 = 1953125 of them.
  constexpr std::array<float, 5> kValues = {-1.0f, -0.0f, 0.0f, 1.0f, 2.0f};
  std::size_t code = 0;
  expect_median_matches_nth_element(1953125, [&](std::array<float, 9>& w) {
    std::size_t c = code++;
    for (float& x : w) {
      x = kValues[c % 5];
      c /= 5;
    }
  });
}

// MotionCorrector::correct as it was before it warped only what the
// Gauss-Newton loop reads: a full warp of the (smoothed) scan after every
// update, the mask tested voxel by voxel over the whole interior, and the
// corrected scan chosen afterwards.  The reference is prepared as the
// constructor prepares it.
MotionResult full_warp_correct(const VolumeF& reference,
                               const MotionConfig& cfg, const VolumeF& scan) {
  const VolumeF ref =
      cfg.presmooth ? average_filter_3x3x3(reference) : reference;
  float peak = 0.0f;
  for (std::size_t i = 0; i < ref.size(); ++i) peak = std::max(peak, ref[i]);
  const float mask_threshold = peak * static_cast<float>(cfg.foreground_fraction);

  const Dims d = ref.dims();
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;

  MotionResult result;
  RigidTransform theta;

  const VolumeF smooth_scan = cfg.presmooth ? average_filter_3x3x3(scan) : scan;
  VolumeF warped = smooth_scan;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    std::array<double, 36> jtj{};
    std::array<double, 6> jtr{};
    double sse = 0.0;
    std::size_t count = 0;

    for (int z = 1; z < d.nz - 1; ++z) {
      for (int y = 1; y < d.ny - 1; ++y) {
        for (int x = 1; x < d.nx - 1; ++x) {
          const float rv = ref.at(x, y, z);
          if (rv < mask_threshold) continue;
          const double r = warped.at(x, y, z) - rv;
          const double gx =
              0.5 * (warped.at(x + 1, y, z) - warped.at(x - 1, y, z));
          const double gy =
              0.5 * (warped.at(x, y + 1, z) - warped.at(x, y - 1, z));
          const double gz =
              0.5 * (warped.at(x, y, z + 1) - warped.at(x, y, z - 1));
          const double px = x - cx, py = y - cy, pz = z - cz;
          const std::array<double, 6> jrow = {
              gx,
              gy,
              gz,
              gy * (-pz) + gz * py,
              gx * pz + gz * (-px),
              gx * (-py) + gy * px,
          };
          for (std::size_t a = 0; a < 6; ++a) {
            jtr[a] += jrow[a] * r;
            for (std::size_t b = a; b < 6; ++b) jtj[a * 6 + b] += jrow[a] * jrow[b];
          }
          sse += r * r;
          ++count;
        }
      }
    }
    if (count == 0) break;
    for (std::size_t a = 0; a < 6; ++a)
      for (std::size_t b = 0; b < a; ++b) jtj[a * 6 + b] = jtj[b * 6 + a];
    for (std::size_t a = 0; a < 6; ++a) jtj[a * 6 + a] *= 1.001;

    const double rmse = std::sqrt(sse / static_cast<double>(count));
    if (iter == 0) result.initial_rmse = rmse;
    result.final_rmse = rmse;
    result.iterations = iter;

    if (!linalg::solve_spd_in_place(jtj, jtr)) break;
    const std::array<double, 6>& delta = jtr;

    auto arr = theta.as_array();
    double step_max = 0.0;
    for (std::size_t a = 0; a < 6; ++a) {
      arr[a] -= delta[a];
      step_max = std::max(step_max, std::abs(delta[a]));
    }
    theta = RigidTransform::from_array(arr);
    resample_into(smooth_scan, theta, warped);
    result.iterations = iter + 1;
    if (step_max < cfg.tolerance) break;
  }

  result.estimate = theta;
  result.corrected =
      cfg.presmooth && theta.max_abs() > 0.0 ? resample(scan, theta)
      : cfg.presmooth                        ? scan
                                             : std::move(warped);
  return result;
}

// A smooth bright blob over dark air at any dims, with noise from `seed`.
VolumeF blob_volume(Dims d, std::uint64_t seed) {
  des::Rng rng(seed);
  VolumeF v(d);
  for (int z = 0; z < d.nz; ++z)
    for (int y = 0; y < d.ny; ++y)
      for (int x = 0; x < d.nx; ++x) {
        const double rx = (x - (d.nx - 1) / 2.0) / (d.nx / 3.0 + 1.0);
        const double ry = (y - (d.ny - 1) / 2.0) / (d.ny / 3.0 + 1.0);
        const double rz = (z - (d.nz - 1) / 2.0) / (d.nz / 3.0 + 1.0);
        v.at(x, y, z) = static_cast<float>(
            100.0 * std::exp(-(rx * rx + ry * ry + rz * rz)) +
            rng.uniform(0.0, 5.0));
      }
  return v;
}

void expect_same_motion(const MotionResult& got, const MotionResult& want,
                        const std::string& what) {
  const auto g = got.estimate.as_array(), w = want.estimate.as_array();
  for (std::size_t a = 0; a < 6; ++a)
    EXPECT_TRUE(same_bits(g[a], w[a])) << what << ": estimate[" << a << "]";
  EXPECT_TRUE(same_bits(got.corrected, want.corrected)) << what << ": corrected";
  EXPECT_EQ(got.iterations, want.iterations) << what << ": iterations";
  EXPECT_TRUE(same_bits(got.initial_rmse, want.initial_rmse))
      << what << ": initial_rmse";
  EXPECT_TRUE(same_bits(got.final_rmse, want.final_rmse))
      << what << ": final_rmse";
}

TEST(MotionEquivalenceTest, MaskedWarpsMatchFullWarpOracleBitwise) {
  struct Case {
    std::string name;
    VolumeF reference, scan;
  };
  std::vector<Case> cases;
  // Head motion at the paper's functional matrix: the loop converges and
  // stops on the tolerance.
  {
    const VolumeF head = scanner::make_head_phantom(Dims{64, 64, 16});
    const VolumeF moved =
        resample(head, RigidTransform{0.7, -0.4, 0.3, 0.01, -0.008, 0.02});
    cases.push_back({"head 64x64x16", head, moved});
  }
  std::uint64_t seed = 400;
  for (const Dims& d : {Dims{1, 1, 1}, Dims{2, 3, 1}, Dims{3, 3, 3},
                        Dims{64, 64, 16}}) {
    const std::string dims = std::to_string(d.nx) + "x" + std::to_string(d.ny) +
                             "x" + std::to_string(d.nz);
    cases.push_back({"blob " + dims, blob_volume(d, seed), blob_volume(d, seed + 1)});
    seed += 2;
    // Uniform images: zero gradients, so the normal equations are singular.
    cases.push_back({"uniform " + dims, VolumeF(d, 50.0f), VolumeF(d, 50.0f)});
    // Every reference voxel below the mask threshold: the mask is empty.
    cases.push_back({"all air " + dims, VolumeF(d, -1.0f), blob_volume(d, seed++)});
  }

  for (const bool presmooth : {true, false}) {
    for (const int max_iterations : {1, 2, 12}) {
      MotionConfig cfg;
      cfg.presmooth = presmooth;
      cfg.max_iterations = max_iterations;
      for (const Case& c : cases) {
        const std::string what = c.name + (presmooth ? " presmooth" : " raw") +
                                 " max_iterations " +
                                 std::to_string(max_iterations);
        const MotionResult want = full_warp_correct(c.reference, cfg, c.scan);
        const MotionCorrector mc(c.reference, cfg);
        expect_same_motion(mc.correct(c.scan), want, what);
        // A second call on the same corrector sees no state of the first.
        expect_same_motion(mc.correct(c.scan), want, what + " again");
        // The cases reach the exits they are meant to reach: on the
        // smoothed head the loop stops on the tolerance, on the raw one
        // (sharp edges) it runs to the cap.
        if (c.name == "head 64x64x16") {
          if (presmooth && max_iterations == 12) {
            EXPECT_LT(want.iterations, max_iterations) << what;
          } else {
            EXPECT_EQ(want.iterations, max_iterations) << what;
          }
        }
        if (c.name.starts_with("uniform") || c.name.starts_with("all air")) {
          EXPECT_EQ(want.iterations, 0) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gtw::fire
