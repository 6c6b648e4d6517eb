#include "fire/filters.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

namespace gtw::fire {

namespace {

// Orders a pair by value: afterwards a <= b.  std::min and std::max
// compile to single minss/maxss instructions, so the network has no
// branches.  -0 and +0 compare equal, so a tied pair may leave either sign
// in both places.
inline void sort2(float& a, float& b) {
  const float lo = std::min(a, b);
  b = std::max(a, b);
  a = lo;
}

// Exact median of nine values by a 19-comparator selection network.  It
// returns the value std::nth_element would put at w[4]; when -0 and +0 tie
// for the median, the sign may differ.
float median9(std::array<float, 9>& w) {
  sort2(w[1], w[2]); sort2(w[4], w[5]); sort2(w[7], w[8]);
  sort2(w[0], w[1]); sort2(w[3], w[4]); sort2(w[6], w[7]);
  sort2(w[1], w[2]); sort2(w[4], w[5]); sort2(w[7], w[8]);
  sort2(w[0], w[3]); sort2(w[5], w[8]); sort2(w[4], w[7]);
  sort2(w[3], w[6]); sort2(w[1], w[4]); sort2(w[2], w[5]);
  sort2(w[4], w[7]); sort2(w[4], w[2]); sort2(w[6], w[4]);
  sort2(w[4], w[2]);
  return w[4];
}

}  // namespace

VolumeF median_filter_3x3(const VolumeF& in) {
  const Dims d = in.dims();
  VolumeF out(d);
  const float* src = in.data().data();
  const std::ptrdiff_t row = d.nx;
  std::array<float, 9> window;
  std::size_t i = 0;
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y) {
      for (int x = 0; x < d.nx; ++x, ++i) {
        if (x > 0 && x < d.nx - 1 && y > 0 && y < d.ny - 1) {
          // Interior: the window by direct index, in the same dy -> dx
          // order as the clamped gather below.
          const float* c = src + i;
          window = {c[-row - 1], c[-row], c[-row + 1],
                    c[-1],       c[0],    c[1],
                    c[row - 1],  c[row],  c[row + 1]};
        } else {
          int n = 0;
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx)
              window[static_cast<std::size_t>(n++)] =
                  in.clamped(x + dx, y + dy, z);
        }
        out[i] = median9(window);
      }
    }
  }
  return out;
}

VolumeF average_filter_3x3x3(const VolumeF& in) {
  const Dims d = in.dims();
  VolumeF out(d);
  const float* src = in.data().data();
  const std::ptrdiff_t row = d.nx;
  const std::ptrdiff_t slice = row * d.ny;
  // Border voxels: the 27 clamped taps in dz -> dy -> dx order.
  const auto clamped_mean = [&](int x, int y, int z) {
    double acc = 0.0;
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          acc += in.clamped(x + dx, y + dy, z + dz);
    return static_cast<float>(acc / 27.0);
  };
  // Interior voxels x .. x + kLanes - 1 of the row at `c`: the same taps by
  // direct index, each voxel's chain in the same order, kLanes chains side
  // by side so the additions overlap.  A voxel's mean does not depend on
  // which chunk computes it, so chunks may overlap.
  constexpr int kLanes = 8;
  const auto interior_means = [&](const float* c, float* o) {
    std::array<double, kLanes> acc{};
    for (std::ptrdiff_t dz = -slice; dz <= slice; dz += slice)
      for (std::ptrdiff_t dy = -row; dy <= row; dy += row)
        for (std::ptrdiff_t dx = -1; dx <= 1; ++dx)
          for (std::size_t j = 0; j < kLanes; ++j)
            acc[j] += c[dz + dy + dx + static_cast<std::ptrdiff_t>(j)];
    for (std::size_t j = 0; j < kLanes; ++j)
      o[j] = static_cast<float>(acc[j] / 27.0);
  };
  std::size_t i = 0;  // voxel (0, y, z)
  for (int z = 0; z < d.nz; ++z) {
    for (int y = 0; y < d.ny; ++y, i += static_cast<std::size_t>(d.nx)) {
      const float* c = src + i;
      float* o = out.data().data() + i;
      int x = 0;
      // Rows narrower than one chunk of interior take the clamped path,
      // which gives interior voxels the same bits.
      if (d.nx - 2 >= kLanes && y > 0 && y < d.ny - 1 && z > 0 &&
          z < d.nz - 1) {
        o[0] = clamped_mean(0, y, z);
        // The last chunk is moved back to end at nx - 2.
        for (x = 1; x < d.nx - 1; x += kLanes) {
          const int at = std::min(x, d.nx - 1 - kLanes);
          interior_means(c + at, o + at);
        }
        x = d.nx - 1;
      }
      for (; x < d.nx; ++x) o[x] = clamped_mean(x, y, z);
    }
  }
  return out;
}

}  // namespace gtw::fire
