#pragma once

// Simulated figures recorded for the default seed.  Every run holds each
// figure to within 1% of these (the ROADMAP fidelity budget).  To
// regenerate, run the driver with --seed 1 and copy its "figures" object;
// say why in the change that does.

#include <cstdint>

namespace perfbench {

constexpr std::uint64_t kDefaultSeed = 1;

constexpr double kRefNationalMakespanS = 0.302375;
constexpr double kRefFmriMeanDelayS = 4.105756;

// m3 goodput per WAN case.  `seed_sensitive` marks the cases whose goodput
// moves by more than 1% when the seed shifts the fault onsets by under a
// millisecond (up to 25% over seeds 1-30, see README.md); their figure is
// held to the reference at the default seed only.  Every other case stayed
// within 0.03% of it over those seeds and is held to 1% at every seed.
struct WanReference {
  const char* name;
  double mbps;
  bool seed_sensitive;
};
constexpr WanReference kRefWanGoodputMbps[] = {
    {"100km/clean/single", 405.074860, false},
    {"100km/clean/multi4", 479.134216, false},
    {"100km/clean/multi8", 478.960552, false},
    {"100km/clean/multi8_paced", 476.176177, false},
    {"100km/loss/single", 72.802056, false},
    {"100km/loss/multi4", 171.346275, true},
    {"100km/loss/multi8", 229.787180, true},
    {"100km/loss/multi8_paced", 220.947422, true},
    {"100km/outage/single", 70.321395, false},
    {"100km/outage/multi4", 100.320837, false},
    {"100km/outage/multi8", 102.990546, false},
    {"100km/outage/multi8_paced", 104.076510, false},
    {"100km/loss_outage/single", 41.700476, false},
    {"100km/loss_outage/multi4", 76.852582, true},
    {"100km/loss_outage/multi8", 90.442966, true},
    {"100km/loss_outage/multi8_paced", 79.370293, true},
    {"1000km/clean/single", 533.391491, false},
    {"1000km/clean/multi4", 390.369030, false},
    {"1000km/clean/multi8", 467.604792, false},
    {"1000km/clean/multi8_paced", 496.801777, false},
    {"1000km/loss/single", 56.401025, false},
    {"1000km/loss/multi4", 184.737151, true},
    {"1000km/loss/multi8", 229.895758, true},
    {"1000km/loss/multi8_paced", 220.402216, true},
    {"1000km/outage/single", 73.081319, false},
    {"1000km/outage/multi4", 104.396884, true},
    {"1000km/outage/multi8", 98.389702, false},
    {"1000km/outage/multi8_paced", 104.070318, false},
    {"1000km/loss_outage/single", 35.716465, false},
    {"1000km/loss_outage/multi4", 67.725920, true},
    {"1000km/loss_outage/multi8", 92.086973, true},
    {"1000km/loss_outage/multi8_paced", 85.675051, true},
};

}  // namespace perfbench
