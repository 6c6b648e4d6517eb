// Allocation proof for FIRE motion correction (DESIGN.md, FIRE section).
//
// MotionCorrector fixes its mask runs and read rows at construction, keeps
// the normal equations in fixed storage and warps into the volume it
// returns, so a correct() call allocates that volume and, with presmooth
// on, the smoothed scan, and nothing per iteration.  This binary replaces
// the global allocation functions with counting versions and asserts
// exactly that, over calls that run from zero to twelve iterations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>

#include "fire/motion.hpp"
#include "fire/rigid.hpp"
#include "scanner/phantom.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gtw::fire {
namespace {

TEST(FireAllocTest, CorrectAllocatesItsResultWhateverTheIterationCount) {
  const VolumeF head = scanner::make_head_phantom(Dims{64, 64, 16});
  const VolumeF moved =
      resample(head, RigidTransform{0.7, -0.4, 0.3, 0.01, -0.008, 0.02});
  const VolumeF uniform(head.dims(), 50.0f);  // singular: 0 iterations
  for (const bool presmooth : {true, false}) {
    // The returned volume, plus the smoothed scan.
    const std::uint64_t per_call = presmooth ? 2 : 1;
    std::set<int> iteration_counts;
    for (const int max_iterations : {1, 2, 12}) {
      for (const double tolerance : {1e-4, 0.0}) {
        MotionConfig cfg;
        cfg.presmooth = presmooth;
        cfg.max_iterations = max_iterations;
        cfg.tolerance = tolerance;
        const MotionCorrector mc(head, cfg);
        for (const VolumeF* scan : {&moved, &head, &uniform}) {
          const std::uint64_t before = g_allocations;
          const MotionResult res = mc.correct(*scan);
          EXPECT_EQ(g_allocations - before, per_call)
              << "presmooth " << presmooth << ", max_iterations "
              << max_iterations << ", tolerance " << tolerance << ", "
              << res.iterations << " iterations";
          iteration_counts.insert(res.iterations);
        }
      }
    }
    // The calls above span the loop's range, so the count cannot depend on
    // how long it ran.
    EXPECT_TRUE(iteration_counts.contains(0));
    EXPECT_TRUE(iteration_counts.contains(1));
    EXPECT_TRUE(iteration_counts.contains(12));
    EXPECT_GE(iteration_counts.size(), 4u);
  }
}

}  // namespace
}  // namespace gtw::fire
