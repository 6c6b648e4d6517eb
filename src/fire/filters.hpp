// Spatial filters of the FIRE processing pipeline (paper section 4):
// "a median filter is used to reduce noise in the unprocessed picture.
// After the processing pipeline, the data can be smoothened by an averaging
// filter."  Both operate slice-wise / block-wise with edge clamping and
// expose work estimates for the parallel execution model.
#pragma once

#include "fire/volume.hpp"

namespace gtw::fire {

// In-plane 3x3 median per slice (robust impulse/noise suppression on the
// raw EPI images before analysis).
VolumeF median_filter_3x3(const VolumeF& in);

// 3x3x3 boxcar smoothing (post-pipeline spatial smoothing of maps).
VolumeF average_filter_3x3x3(const VolumeF& in);

// Work accounting used by exec::time_on through fire/workload.cpp, and so
// by Table 1's and fig2's simulated times: effective operations per voxel
// of the 1999 T3E/workstation code (9-element gather plus partial selection
// with its branchy comparisons; 27-element gather + accumulate).  These are
// model constants of the paper's machines, not host costs: they must not
// follow this file's implementation, whose selection network and interior
// paths do less work on the host.
constexpr double kMedianOpsPerVoxel = 66.0;
constexpr double kAverageOpsPerVoxel = 60.0;

}  // namespace gtw::fire
