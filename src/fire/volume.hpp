// 3-D image volume, the unit of data in the FIRE pipeline (Functional
// Imaging in REaltime, developed at the Institute of Medicine, FZ Jülich).
// Typical functional matrix in the paper: 64x64x16 voxels; anatomical
// reference volumes are 256x256x128.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gtw::fire {

struct Dims {
  int nx = 0, ny = 0, nz = 0;
  std::size_t voxels() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
  bool operator==(const Dims&) const = default;
};

template <typename T>
class Volume {
 public:
  Volume() = default;
  explicit Volume(Dims d, T fill = T{})
      : dims_(d), data_(d.voxels(), fill) {}
  Volume(int nx, int ny, int nz, T fill = T{})
      : Volume(Dims{nx, ny, nz}, fill) {}

  const Dims& dims() const { return dims_; }
  std::size_t size() const { return data_.size(); }
  std::size_t size_bytes() const { return data_.size() * sizeof(T); }
  bool empty() const { return data_.empty(); }

  T& at(int x, int y, int z) { return data_[index(x, y, z)]; }
  T at(int x, int y, int z) const { return data_[index(x, y, z)]; }
  T& operator[](std::size_t i) { return data_[i]; }
  T operator[](std::size_t i) const { return data_[i]; }

  const std::vector<T>& data() const { return data_; }
  std::vector<T>& data() { return data_; }

  // Clamped access: out-of-bounds coordinates read the nearest edge voxel.
  T clamped(int x, int y, int z) const {
    x = std::min(std::max(x, 0), dims_.nx - 1);
    y = std::min(std::max(y, 0), dims_.ny - 1);
    z = std::min(std::max(z, 0), dims_.nz - 1);
    return data_[index(x, y, z)];
  }

  // Trilinear interpolation at a continuous voxel coordinate; coordinates
  // outside the volume are clamped to the border.  Taps of zero weight are
  // skipped and the rest accumulate in dz -> dy -> dx order; when all eight
  // lie inside the volume they are read by direct index, which reads the
  // same voxels clamped() would.
  double sample(double x, double y, double z) const {
    const int x0 = floor_int(x);
    const int y0 = floor_int(y);
    const int z0 = floor_int(z);
    const double fx = x - x0, fy = y - y0, fz = z - z0;
    const bool inside = x0 >= 0 && y0 >= 0 && z0 >= 0 && x0 < dims_.nx - 1 &&
                        y0 < dims_.ny - 1 && z0 < dims_.nz - 1;
    const T* base = inside ? &data_[index(x0, y0, z0)] : nullptr;
    const std::size_t row = static_cast<std::size_t>(dims_.nx);
    const std::size_t slice = row * static_cast<std::size_t>(dims_.ny);
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
          const T v = inside ? base[static_cast<std::size_t>(dz) * slice +
                                    static_cast<std::size_t>(dy) * row +
                                    static_cast<std::size_t>(dx)]
                             : clamped(x0 + dx, y0 + dy, z0 + dz);
          acc += wx * wy * wz * static_cast<double>(v);
        }
      }
    }
    return acc;
  }

  double mean() const {
    if (data_.empty()) return 0.0;
    double s = 0.0;
    for (const T& v : data_) s += static_cast<double>(v);
    return s / static_cast<double>(data_.size());
  }

 private:
  std::size_t index(int x, int y, int z) const {
    assert(x >= 0 && x < dims_.nx && y >= 0 && y < dims_.ny && z >= 0 &&
           z < dims_.nz);
    return (static_cast<std::size_t>(z) * dims_.ny +
            static_cast<std::size_t>(y)) *
               dims_.nx +
           static_cast<std::size_t>(x);
  }

  // std::floor as an int without the libm call std::floor is on a baseline
  // x86-64 build; exact wherever the int conversion is defined.
  static int floor_int(double v) {
    const int i = static_cast<int>(v);
    return static_cast<double>(i) > v ? i - 1 : i;
  }

  Dims dims_;
  std::vector<T> data_;
};

using VolumeF = Volume<float>;

}  // namespace gtw::fire
