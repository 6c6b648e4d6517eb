// 3-D movement correction: "even small head movements of the subject tend
// to produce artefacts in the correlation coefficient due to the high
// intrinsic contrast of the MR images ... Here an iterative linear scheme
// is used" (paper section 4).
//
// Gauss-Newton on the 6 rigid parameters: each iteration warps the scan by
// the current estimate, linearises the intensity residual against the
// reference through the warped image's spatial gradients, and solves the
// 6x6 normal equations.
#pragma once

#include <vector>

#include "fire/rigid.hpp"
#include "fire/volume.hpp"

namespace gtw::fire {

struct MotionConfig {
  int max_iterations = 12;
  double tolerance = 1e-4;       // stop when the update is this small
  double foreground_fraction = 0.2;  // of max intensity; masks air voxels
  // Estimate on 3x3x3-smoothed images (the transform is applied to the
  // original scan).  Sharp tissue/air edges otherwise make trilinear
  // interpolation error dominate the residual and bias the fit.
  bool presmooth = true;
};

struct MotionResult {
  RigidTransform estimate;  // transform that aligns the scan to the reference
  VolumeF corrected;        // scan resampled into the reference frame
  int iterations = 0;
  double initial_rmse = 0.0;
  double final_rmse = 0.0;
};

// The foreground mask depends only on the reference, so the constructor
// fixes what every iteration touches: the mask as row runs, and the voxels
// the accumulation reads (the mask and its 6-neighbours) as one x-range per
// row.  correct() accumulates J^T J over the runs in z -> y -> x order,
// warps only the read rows inside the loop (iteration 0 reads the scan
// itself), and never warps after the final update, since with `presmooth`
// on nothing reads that warp.  `corrected` is always a full warp of the
// scan (or the scan itself when the estimate stayed at identity).  A call
// allocates the returned volume, plus the smoothed scan with `presmooth`
// on, whatever the iteration count.
class MotionCorrector {
 public:
  explicit MotionCorrector(VolumeF reference, MotionConfig cfg = {});

  // `scan` must have the reference's dims.
  MotionResult correct(const VolumeF& scan) const;

  const VolumeF& reference() const { return ref_; }

 private:
  VolumeF ref_;
  MotionConfig cfg_;
  float mask_threshold_ = 0.0f;
  std::vector<RowSpan> mask_runs_;  // foreground voxels, z -> y -> x
  std::vector<RowSpan> read_rows_;  // what the accumulation reads
};

// Execution-model work accounting: per voxel per Gauss-Newton iteration,
// a trilinear warp (~33 ops), central gradients (~18), and the J^T J / J^T r
// accumulation (~62) of the 1999 T3E/workstation code.  It feeds Table 1's
// and fig2's simulated times through fire/workload.cpp; it is a model
// constant of the paper's machines and must not follow the host
// implementation's cost.
constexpr double kMotionOpsPerVoxelIter = 113.0;
constexpr int kMotionTypicalIters = 8;

}  // namespace gtw::fire
