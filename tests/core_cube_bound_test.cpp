// Exactness and work bound of the Cor. 2.2.7 sizing scan: the window
// kernel behind PrefixSums::max_cube_sum against box_sum, and cube_bound's
// early exit against a full scan of every side.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/cube_bound.h"
#include "grid/dense_grid.h"
#include "util/rng.h"

namespace cmvrp {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Maximum of box_sum over every side^ℓ window with its base inside the
// box, one clipped window per axis the cube overhangs — the windows
// max_cube_sum is specified over, enumerated the slow way.
double max_box_sum(const PrefixSums& ps, const Box& box, std::int64_t side) {
  const int dim = box.dim();
  Point hi = box.lo();
  for (int i = 0; i < dim; ++i)
    hi[i] = std::max(box.lo()[i], box.hi()[i] - side + 1);
  double best = 0.0;
  Box(box.lo(), hi).for_each_point([&](const Point& corner) {
    best = std::max(best, ps.box_sum(Box::cube(corner, side)));
  });
  return best;
}

// cube_bound without the early exit: every side up to the bounding-box
// extent (and past the crossover), window maxima from max_box_sum.
CubeBound full_scan_cube_bound(const DemandMap& d) {
  CubeBound out;
  const int dim = d.dim();
  const DenseGrid grid = DenseGrid::from_demand(d);
  const PrefixSums ps(grid);
  const double total = d.total();
  std::int64_t max_side = 1;
  for (int i = 0; i < dim; ++i)
    max_side = std::max(max_side, grid.box().side(i));
  std::int64_t k_hi = max_side + 2;
  const double crossover =
      std::pow(total / std::pow(3.0, dim), 1.0 / (dim + 1)) + 2.0;
  k_hi = std::max<std::int64_t>(k_hi, static_cast<std::int64_t>(crossover) + 2);

  double best = -1.0;
  std::int64_t best_side = 1;
  double best_m = 0.0;
  for (std::int64_t k = 1; k <= k_hi; ++k) {
    const double m = k >= max_side ? total : max_box_sum(ps, grid.box(), k);
    if (m <= 0.0) continue;
    const double root =
        m / std::pow(3.0 * static_cast<double>(k), static_cast<double>(dim));
    if (root > static_cast<double>(k)) continue;
    const double candidate = std::max(root, static_cast<double>(k - 1));
    if (best < 0.0 || candidate < best) {
      best = candidate;
      best_side = k;
      best_m = m;
    }
  }
  out.omega_c = best;
  out.cube_side = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(best - 1e-12)));
  if (static_cast<double>(best_side - 1) <= best &&
      best <= static_cast<double>(best_side))
    out.cube_side = best_side;
  out.max_cube_demand = best_m;
  return out;
}

void expect_same_bound(const CubeBound& got, const CubeBound& want,
                       const std::string& what) {
  EXPECT_TRUE(same_bits(got.omega_c, want.omega_c))
      << what << ": omega_c " << got.omega_c << " vs " << want.omega_c;
  EXPECT_EQ(got.cube_side, want.cube_side) << what;
  EXPECT_TRUE(same_bits(got.max_cube_demand, want.max_cube_demand))
      << what << ": max_cube_demand " << got.max_cube_demand << " vs "
      << want.max_cube_demand;
  // Side k's candidate is >= k-1, so no side past ⌊ω_c⌋+1 is evaluated.
  EXPECT_LE(static_cast<double>(got.sides_scanned),
            std::floor(got.omega_c) + 1.0)
      << what;
}

enum class Weights { kUnit, kFractional, kHeavy };

// Random demand on a box whose axes have independent spans, so windows
// overhang some axes and fit others.
DemandMap random_demand(std::uint64_t seed, int dim, Weights weights) {
  Rng rng(seed);
  std::int64_t span[Point::kMaxDim] = {};
  for (int i = 0; i < dim; ++i)
    span[i] = rng.next_int(0, dim == 1 ? 40 : dim == 2 ? 14 : 6);
  const std::int64_t points = rng.next_int(1, 30);
  DemandMap d(dim);
  for (std::int64_t j = 0; j < points; ++j) {
    Point p = Point::origin(dim);
    for (int i = 0; i < dim; ++i) p[i] = rng.next_int(-3, -3 + span[i]);
    switch (weights) {
      case Weights::kUnit: d.add(p, 1.0); break;
      case Weights::kFractional: d.add(p, rng.next_double(0.01, 2.0)); break;
      case Weights::kHeavy: d.add(p, rng.next_double(50.0, 5000.0)); break;
    }
  }
  return d;
}

TEST(MaxCubeSum, BitIdenticalToBoxSumMaximum) {
  int sides_checked = 0;
  for (int dim = 1; dim <= 3; ++dim) {
    for (const Weights w :
         {Weights::kUnit, Weights::kFractional, Weights::kHeavy}) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const DemandMap d = random_demand(seed * 7 + dim, dim, w);
        const DenseGrid grid = DenseGrid::from_demand(d);
        const PrefixSums ps(grid);
        std::int64_t extent = 1;
        for (int i = 0; i < dim; ++i)
          extent = std::max(extent, grid.box().side(i));
        for (std::int64_t k = 1; k <= extent + 2; ++k, ++sides_checked) {
          const double fast = ps.max_cube_sum(k);
          const double slow = max_box_sum(ps, grid.box(), k);
          ASSERT_TRUE(same_bits(fast, slow))
              << "dim " << dim << " seed " << seed << " side " << k << ": "
              << fast << " vs " << slow;
        }
      }
    }
  }
  EXPECT_GT(sides_checked, 1000);
}

TEST(CubeBound, EarlyExitMatchesFullScan) {
  for (int dim = 1; dim <= 3; ++dim) {
    for (const Weights w :
         {Weights::kUnit, Weights::kFractional, Weights::kHeavy}) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const DemandMap d = random_demand(seed * 13 + dim, dim, w);
        expect_same_bound(cube_bound(d), full_scan_cube_bound(d),
                          "dim " + std::to_string(dim) + " seed " +
                              std::to_string(seed));
      }
    }
  }
}

TEST(CubeBound, OutlierWidensTheBoxNotTheScan) {
  // A heavy 16x16 cluster plus one job 1,000 cells away on one axis: the
  // bounding box is 1016 wide, but ω_c comes from the cluster, and the
  // scan must stop within ⌊ω_c⌋+1 sides instead of walking all 1016.
  Rng rng(2008);
  DemandMap d(2);
  for (std::int64_t x = 0; x < 16; ++x)
    for (std::int64_t y = 0; y < 16; ++y)
      d.add(Point{x, y}, static_cast<double>(rng.next_int(1, 100)));
  d.add(Point{15 + 1000, 7}, 1.0);
  ASSERT_EQ(d.bounding_box().side(0), 1016);

  const CubeBound cb = cube_bound(d);
  expect_same_bound(cb, full_scan_cube_bound(d), "outlier");
  EXPECT_GT(cb.omega_c, 1.0);
  EXPECT_GE(cb.sides_scanned, 1);
  EXPECT_LE(static_cast<double>(cb.sides_scanned),
            std::floor(cb.omega_c) + 1.0);
  EXPECT_LT(cb.sides_scanned, 16);
}

}  // namespace
}  // namespace cmvrp
