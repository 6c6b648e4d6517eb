#include "fire/motion.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "fire/filters.hpp"
#include "linalg/solve.hpp"

namespace gtw::fire {

MotionCorrector::MotionCorrector(VolumeF reference, MotionConfig cfg)
    : ref_(cfg.presmooth ? average_filter_3x3x3(reference)
                         : std::move(reference)),
      cfg_(cfg) {
  float peak = 0.0f;
  for (std::size_t i = 0; i < ref_.size(); ++i) peak = std::max(peak, ref_[i]);
  mask_threshold_ = peak * static_cast<float>(cfg_.foreground_fraction);

  // Foreground: interior voxels not below the threshold.
  const Dims d = ref_.dims();
  const auto in_mask = [&](int x, int y, int z) {
    return x > 0 && x < d.nx - 1 && y > 0 && y < d.ny - 1 && z > 0 &&
           z < d.nz - 1 && !(ref_.at(x, y, z) < mask_threshold_);
  };
  const auto is_read = [&](int x, int y, int z) {
    return in_mask(x, y, z) || in_mask(x - 1, y, z) || in_mask(x + 1, y, z) ||
           in_mask(x, y - 1, z) || in_mask(x, y + 1, z) ||
           in_mask(x, y, z - 1) || in_mask(x, y, z + 1);
  };
  // The first pass counts and the second fills, so each list is allocated
  // once at its final size.
  for (const bool fill : {false, true}) {
    std::size_t runs = 0, rows = 0;
    for (int z = 0; z < d.nz; ++z) {
      for (int y = 0; y < d.ny; ++y) {
        int lo = d.nx, hi = -1;
        for (int x = 0; x < d.nx; ++x) {
          if (is_read(x, y, z)) {
            lo = std::min(lo, x);
            hi = x;
          }
          if (in_mask(x, y, z) && !in_mask(x - 1, y, z)) {
            int end = x + 1;
            while (in_mask(end, y, z)) ++end;
            if (fill) mask_runs_.push_back({y, z, x, end});
            ++runs;
          }
        }
        if (hi < lo) continue;
        if (fill) read_rows_.push_back({y, z, lo, hi + 1});
        ++rows;
      }
    }
    if (!fill) {
      mask_runs_.reserve(runs);
      read_rows_.reserve(rows);
    }
  }
}

MotionResult MotionCorrector::correct(const VolumeF& scan) const {
  const Dims d = ref_.dims();
  assert(scan.dims() == d);
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;
  const std::size_t row = static_cast<std::size_t>(d.nx);
  const std::size_t slice = row * static_cast<std::size_t>(d.ny);

  MotionResult result;
  RigidTransform theta;

  VolumeF smoothed;
  if (cfg_.presmooth) smoothed = average_filter_3x3x3(scan);
  const VolumeF& moving = cfg_.presmooth ? smoothed : scan;
  // The warp buffer is the returned volume, which is written last.
  VolumeF& warped = result.corrected;
  warped = VolumeF(d);
  const float* ref = ref_.data().data();
  for (int iter = 0; iter < cfg_.max_iterations; ++iter) {
    // Iteration 0 runs at the identity and reads the scan itself; later
    // ones warp only the rows the accumulation reads.
    if (iter > 0) resample_rows(moving, theta, read_rows_, warped);
    const float* img = (iter == 0 ? moving : warped).data().data();

    // J^T J (6x6, row-major) and J^T r accumulated over foreground voxels;
    // fixed storage keeps the iteration allocation-free.
    std::array<double, 36> jtj{};
    std::array<double, 6> jtr{};
    double sse = 0.0;
    std::size_t count = 0;

    for (const RowSpan& run : mask_runs_) {
      const double py = run.y - cy, pz = run.z - cz;
      std::size_t i = (static_cast<std::size_t>(run.z) * slice +
                       static_cast<std::size_t>(run.y) * row) +
                      static_cast<std::size_t>(run.x0);
      for (int x = run.x0; x < run.x1; ++x, ++i) {
        const float rv = ref[i];
        const double r = img[i] - rv;
        // Central-difference gradient of the warped image.
        const double gx = 0.5 * (img[i + 1] - img[i - 1]);
        const double gy = 0.5 * (img[i + row] - img[i - row]);
        const double gz = 0.5 * (img[i + slice] - img[i - slice]);
        const double px = x - cx;
        // d(position)/d(theta_j) for [tx ty tz rx ry rz].
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
    if (count == 0) break;
    for (std::size_t a = 0; a < 6; ++a)
      for (std::size_t b = 0; b < a; ++b) jtj[a * 6 + b] = jtj[b * 6 + a];
    // Levenberg damping keeps the step sane when gradients are weak.
    for (std::size_t a = 0; a < 6; ++a) jtj[a * 6 + a] *= 1.001;

    const double rmse = std::sqrt(sse / static_cast<double>(count));
    if (iter == 0) result.initial_rmse = rmse;
    result.final_rmse = rmse;
    result.iterations = iter;

    // jtr becomes the step; a degenerate system (e.g. a uniform image)
    // keeps the current estimate.
    if (!linalg::solve_spd_in_place(jtj, jtr)) break;
    const std::array<double, 6>& delta = jtr;

    // Gauss-Newton step (residual = warped - ref, so subtract).
    auto arr = theta.as_array();
    double step_max = 0.0;
    for (std::size_t a = 0; a < 6; ++a) {
      arr[a] -= delta[a];
      step_max = std::max(step_max, std::abs(delta[a]));
    }
    theta = RigidTransform::from_array(arr);
    result.iterations = iter + 1;
    if (step_max < cfg_.tolerance) break;
  }

  result.estimate = theta;
  // `corrected` is the *original* scan, warped in full by the estimate.
  // With `presmooth` off the loop's image is that scan, so any update
  // warps it; with it on, only a non-identity estimate does.
  const bool warp = cfg_.presmooth ? theta.max_abs() > 0.0
                                   : result.iterations > 0;
  if (warp)
    resample_into(scan, theta, warped);
  else
    warped = scan;
  return result;
}

}  // namespace gtw::fire
