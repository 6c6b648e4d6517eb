#include <gtest/gtest.h>

#include "fire/volume.hpp"
#include "net/atm.hpp"
#include "net/units.hpp"
#include "scanner/phantom.hpp"
#include "viz/merge.hpp"
#include "viz/workbench.hpp"

namespace gtw {
namespace {

TEST(WorkbenchFormatTest, FrameBytesMatchPaper) {
  // "two projection planes, each of them displays stereo images of
  // 1024x768 true color (24 Bit) pixels" = 2 x 2 x 1024 x 768 x 3 bytes.
  viz::WorkbenchFormat fmt;
  EXPECT_EQ(fmt.frame_bytes().count(), 2ull * 2 * 1024 * 768 * 3);
}

TEST(ClassicalIpFpsTest, Below8FpsAt622AsPaperStates) {
  viz::WorkbenchFormat fmt;
  const double fps = viz::classical_ip_fps(fmt, net::kOc12Line);
  EXPECT_LT(fps, 8.0);
  EXPECT_GT(fps, 6.0);  // but not absurdly below
}

TEST(ClassicalIpFpsTest, ScalesWithLinkRate) {
  viz::WorkbenchFormat fmt;
  const double f622 = viz::classical_ip_fps(fmt, net::kOc12Line);
  const double f2400 = viz::classical_ip_fps(fmt, net::kOc48Line);
  EXPECT_NEAR(f2400 / f622, 4.0, 0.05);
}

TEST(ClassicalIpFpsTest, LargerMtuHelpsSlightly) {
  viz::WorkbenchFormat fmt;
  const double small = viz::classical_ip_fps(fmt, net::kOc12Line, units::Bytes{9180});
  const double large = viz::classical_ip_fps(fmt, net::kOc12Line, units::Bytes{65535});
  EXPECT_GT(large, small);
  EXPECT_LT(large / small, 1.10);  // cell tax dominates, headers are minor
}

TEST(MergeTest, UpsamplesAndFlagsActivation) {
  const fire::Dims anat_d{64, 64, 32};
  const fire::Dims func_d{16, 16, 8};
  fire::VolumeF anat = scanner::make_anatomical(anat_d);
  fire::VolumeF corr(func_d, 0.0f);
  corr.at(8, 8, 4) = 0.9f;  // one activated functional voxel

  const viz::MergeResult res = viz::merge_functional(anat, corr, 0.5f);
  EXPECT_GT(res.activated_voxels, 0u);
  // Upsampling factor 4x4x4: the blob covers on the order of 4^3 anatomical
  // voxels (trilinear support shrinks it below the full cube).
  EXPECT_LT(res.activated_voxels, 600u);
  // The anatomical grid never samples the functional voxel centre exactly,
  // so trilinear interpolation attenuates the 0.9 peak (0.875^3 = 0.67 of
  // it at the nearest sample).
  EXPECT_GT(res.peak_correlation, 0.55f);
  EXPECT_LE(res.peak_correlation, 0.9f);
  // Overlayed voxels got brighter than the plain anatomical.
  bool brighter = false;
  for (int z = 0; z < anat_d.nz && !brighter; ++z)
    for (int y = 0; y < anat_d.ny && !brighter; ++y)
      for (int x = 0; x < anat_d.nx && !brighter; ++x)
        if (res.overlay.at(x, y, z) &&
            res.merged.at(x, y, z) > anat.at(x, y, z))
          brighter = true;
  EXPECT_TRUE(brighter);
}

TEST(MergeTest, NoActivationBelowClip) {
  fire::VolumeF anat(scanner::make_anatomical(fire::Dims{32, 32, 16}));
  fire::VolumeF corr(fire::Dims{8, 8, 4}, 0.2f);
  const viz::MergeResult res = viz::merge_functional(anat, corr, 0.5f);
  EXPECT_EQ(res.activated_voxels, 0u);
}

TEST(RenderModelTest, FrameTimeScalesWithProcessors) {
  viz::WorkbenchFormat fmt;
  viz::RenderModel one{0.012, 1};
  viz::RenderModel twelve{0.012, 12};
  EXPECT_NEAR(one.frame_time(fmt).sec() / twelve.frame_time(fmt).sec(), 12.0,
              1e-9);
}

}  // namespace
}  // namespace gtw
