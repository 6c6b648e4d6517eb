#include "fire/rigid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gtw::fire {

namespace {

// The transform with the sines and cosines of its three angles evaluated
// once.  map() is the only rotation routine: apply() and resample() both
// call it, so a point maps to the same bits either way.  The rotations stay
// three successive axis rotations in x -> y -> z order; folding them into
// one 3x3 matrix would round differently.
class Mapping {
 public:
  explicit Mapping(const RigidTransform& t)
      : tx_(t.tx), ty_(t.ty), tz_(t.tz),
        cos_x_(std::cos(t.rx)), sin_x_(std::sin(t.rx)),
        cos_y_(std::cos(t.ry)), sin_y_(std::sin(t.ry)),
        cos_z_(std::cos(t.rz)), sin_z_(std::sin(t.rz)) {}

  void map(double cx, double cy, double cz, double x, double y, double z,
           double& ox, double& oy, double& oz) const {
    // Centre-relative coordinates.
    double px = x - cx, py = y - cy, pz = z - cz;
    // Rotate about x.
    {
      const double ny = cos_x_ * py - sin_x_ * pz,
                   nz = sin_x_ * py + cos_x_ * pz;
      py = ny;
      pz = nz;
    }
    // Rotate about y.
    {
      const double nx = cos_y_ * px + sin_y_ * pz,
                   nz = -sin_y_ * px + cos_y_ * pz;
      px = nx;
      pz = nz;
    }
    // Rotate about z.
    {
      const double nx = cos_z_ * px - sin_z_ * py,
                   ny = sin_z_ * px + cos_z_ * py;
      px = nx;
      py = ny;
    }
    ox = px + cx + tx_;
    oy = py + cy + ty_;
    oz = pz + cz + tz_;
  }

 private:
  double tx_, ty_, tz_;
  double cos_x_, sin_x_, cos_y_, sin_y_, cos_z_, sin_z_;
};

// Warps one row span of `out`: the single per-voxel routine behind both
// resample entry points.
void warp_span(const VolumeF& src, const Mapping& m, const RowSpan& r,
               VolumeF& out) {
  const Dims d = src.dims();
  const double cx = (d.nx - 1) / 2.0;
  const double cy = (d.ny - 1) / 2.0;
  const double cz = (d.nz - 1) / 2.0;
  for (int x = r.x0; x < r.x1; ++x) {
    double sx, sy, sz;
    m.map(cx, cy, cz, x, r.y, r.z, sx, sy, sz);
    out.at(x, r.y, r.z) = static_cast<float>(src.sample(sx, sy, sz));
  }
}

}  // namespace

void RigidTransform::apply(double cx, double cy, double cz, double x,
                           double y, double z, double& ox, double& oy,
                           double& oz) const {
  Mapping(*this).map(cx, cy, cz, x, y, z, ox, oy, oz);
}

double RigidTransform::max_abs() const {
  return std::max({std::abs(tx), std::abs(ty), std::abs(tz), std::abs(rx),
                   std::abs(ry), std::abs(rz)});
}

void resample_into(const VolumeF& src, const RigidTransform& t, VolumeF& out) {
  const Dims d = src.dims();
  if (out.dims() != d) out = VolumeF(d);
  const Mapping m(t);
  for (int z = 0; z < d.nz; ++z)
    for (int y = 0; y < d.ny; ++y) warp_span(src, m, {y, z, 0, d.nx}, out);
}

void resample_rows(const VolumeF& src, const RigidTransform& t,
                   const std::vector<RowSpan>& rows, VolumeF& out) {
  assert(out.dims() == src.dims());
  const Mapping m(t);
  for (const RowSpan& r : rows) warp_span(src, m, r, out);
}

VolumeF resample(const VolumeF& src, const RigidTransform& t) {
  VolumeF out;
  resample_into(src, t, out);
  return out;
}

}  // namespace gtw::fire
