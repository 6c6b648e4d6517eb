#include "fire/motion.hpp"

#include <algorithm>
#include <array>
#include <cmath>

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
}

MotionResult MotionCorrector::correct(const VolumeF& scan) const {
  const Dims d = ref_.dims();
  const double cx = (d.nx - 1) / 2.0, cy = (d.ny - 1) / 2.0,
               cz = (d.nz - 1) / 2.0;

  MotionResult result;
  RigidTransform theta;

  const VolumeF smooth_scan =
      cfg_.presmooth ? average_filter_3x3x3(scan) : scan;
  VolumeF warped = smooth_scan;
  for (int iter = 0; iter < cfg_.max_iterations; ++iter) {
    // J^T J (6x6, row-major) and J^T r accumulated over foreground voxels;
    // fixed storage keeps the iteration allocation-free.
    std::array<double, 36> jtj{};
    std::array<double, 6> jtr{};
    double sse = 0.0;
    std::size_t count = 0;

    for (int z = 1; z < d.nz - 1; ++z) {
      for (int y = 1; y < d.ny - 1; ++y) {
        for (int x = 1; x < d.nx - 1; ++x) {
          const float rv = ref_.at(x, y, z);
          if (rv < mask_threshold_) continue;
          const double r = warped.at(x, y, z) - rv;
          // Central-difference gradient of the warped image.
          const double gx =
              0.5 * (warped.at(x + 1, y, z) - warped.at(x - 1, y, z));
          const double gy =
              0.5 * (warped.at(x, y + 1, z) - warped.at(x, y - 1, z));
          const double gz =
              0.5 * (warped.at(x, y, z + 1) - warped.at(x, y, z - 1));
          const double px = x - cx, py = y - cy, pz = z - cz;
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
    resample_into(smooth_scan, theta, warped);
    result.iterations = iter + 1;
    if (step_max < cfg_.tolerance) break;
  }

  result.estimate = theta;
  // Apply the estimated transform to the *original* scan.
  result.corrected =
      cfg_.presmooth && theta.max_abs() > 0.0 ? resample(scan, theta)
      : cfg_.presmooth                        ? scan
                                              : std::move(warped);
  return result;
}

}  // namespace gtw::fire
