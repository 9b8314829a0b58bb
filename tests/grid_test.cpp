#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "grid/box.h"
#include "grid/demand_map.h"
#include "grid/dense_grid.h"
#include "grid/neighborhood.h"
#include "grid/point.h"
#include "util/rng.h"

namespace cmvrp {
namespace {

TEST(Point, BasicsAndMetric) {
  Point p{1, 2};
  Point q{4, -2};
  EXPECT_EQ(p.dim(), 2);
  EXPECT_EQ(l1_distance(p, q), 3 + 4);
  EXPECT_EQ(p.l1_norm(), 3);
  EXPECT_EQ((p + q), (Point{5, 0}));
  EXPECT_EQ((q - p), (Point{3, -4}));
  EXPECT_LT(p, q);
  EXPECT_EQ(p.to_string(), "(1, 2)");
}

TEST(Point, ColoringParity) {
  EXPECT_TRUE((Point{0, 0}).coordinate_sum_even());
  EXPECT_FALSE((Point{0, 1}).coordinate_sum_even());
  EXPECT_TRUE((Point{-1, 1}).coordinate_sum_even());
  EXPECT_FALSE((Point{-1, 0}).coordinate_sum_even());
}

TEST(Point, UnitNeighbors) {
  const auto nb = (Point{3, 7}).unit_neighbors();
  EXPECT_EQ(nb.size(), 4u);
  for (const auto& q : nb) EXPECT_EQ(l1_distance(q, (Point{3, 7})), 1);
}

TEST(Point, HashDistinguishes) {
  PointHash h;
  EXPECT_NE(h((Point{0, 1})), h((Point{1, 0})));
  EXPECT_EQ(h((Point{2, 3})), h((Point{2, 3})));
}

TEST(Box, VolumeContainsDistance) {
  const Box b(Point{0, 0}, Point{2, 3});
  EXPECT_EQ(b.volume(), 12);
  EXPECT_TRUE(b.contains(Point{2, 3}));
  EXPECT_FALSE(b.contains(Point{3, 3}));
  EXPECT_EQ(b.l1_distance_to(Point{5, 5}), 3 + 2);
  EXPECT_EQ(b.l1_distance_to(Point{1, 1}), 0);
  EXPECT_EQ(b.points().size(), 12u);
}

TEST(Box, CubeFactory) {
  const Box c = Box::cube(Point{-1, -1}, 3);
  EXPECT_EQ(c.lo(), (Point{-1, -1}));
  EXPECT_EQ(c.hi(), (Point{1, 1}));
  EXPECT_EQ(c.volume(), 9);
}

TEST(Box, ForEachPointVisitsAllOnce) {
  const Box b(Point{0, 0, 0}, Point{1, 2, 1});
  PointSet seen;
  b.for_each_point([&](const Point& p) { EXPECT_TRUE(seen.insert(p).second); });
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), b.volume());
}

TEST(Neighborhood, BallVolumeClosedForms) {
  // 1-D: 2r+1.
  for (std::int64_t r : {0, 1, 5, 100})
    EXPECT_EQ(l1_ball_volume(1, r), 2 * r + 1);
  // 2-D: 2r^2+2r+1.
  for (std::int64_t r : {0, 1, 2, 7, 50})
    EXPECT_EQ(l1_ball_volume(2, r), 2 * r * r + 2 * r + 1);
  // 3-D octahedral numbers: (2r^3 + 3r^2 + 3r + ... ) checked vs BFS below.
  EXPECT_EQ(l1_ball_volume(3, 0), 1);
  EXPECT_EQ(l1_ball_volume(3, 1), 7);
  EXPECT_EQ(l1_ball_volume(3, 2), 25);
}

TEST(Neighborhood, BallVolumeMatchesBfs) {
  for (int dim = 1; dim <= 3; ++dim) {
    for (std::int64_t r = 0; r <= 6; ++r) {
      const auto bfs = neighborhood_volume({Point::origin(dim)}, r);
      EXPECT_EQ(l1_ball_volume(dim, r), bfs)
          << "dim=" << dim << " r=" << r;
    }
  }
}

struct BoxCase {
  std::vector<std::int64_t> sides;
  std::int64_t r;
};

class BoxNeighborhood : public ::testing::TestWithParam<BoxCase> {};

TEST_P(BoxNeighborhood, DpMatchesBfs) {
  const auto& c = GetParam();
  const int dim = static_cast<int>(c.sides.size());
  Point lo = Point::origin(dim);
  Point hi = lo;
  for (int i = 0; i < dim; ++i)
    hi[i] = c.sides[static_cast<std::size_t>(i)] - 1;
  const Box box(lo, hi);
  const auto bfs = neighborhood_volume(box.points(), c.r);
  EXPECT_EQ(box_neighborhood_volume(c.sides, c.r), bfs)
      << "sides[0]=" << c.sides[0] << " r=" << c.r;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoxNeighborhood,
    ::testing::Values(
        BoxCase{{1}, 0}, BoxCase{{1}, 4}, BoxCase{{5}, 3},
        BoxCase{{1, 1}, 0}, BoxCase{{1, 1}, 3}, BoxCase{{3, 3}, 2},
        BoxCase{{4, 2}, 5}, BoxCase{{7, 1}, 4}, BoxCase{{2, 6}, 1},
        BoxCase{{1, 1, 1}, 2}, BoxCase{{2, 2, 2}, 3}, BoxCase{{3, 1, 2}, 2},
        BoxCase{{2, 3, 2, 2}, 2}));

TEST(Neighborhood, LineNeighborhoodGrowsAsStrip) {
  // For a len x 1 line in 2-D, |N_r| = len(2r+1) + 2r²  (strip + two caps:
  // 2r off-axis ends plus 4·r(r-1)/2 diagonal quarter-diamonds).
  for (std::int64_t len : {1, 2, 10, 50}) {
    for (std::int64_t r : {0, 1, 3, 8}) {
      const auto expected = len * (2 * r + 1) + 2 * r * r;
      EXPECT_EQ(box_neighborhood_volume({len, 1}, r), expected);
    }
  }
}

TEST(Neighborhood, SetBfsOfTwoDistantPointsIsTwoBalls) {
  const Point a{0, 0};
  const Point b{100, 0};
  const auto n = neighborhood(std::vector<Point>{a, b}, 3);
  EXPECT_EQ(static_cast<std::int64_t>(n.size()), 2 * l1_ball_volume(2, 3));
}

TEST(Neighborhood, SetBfsMergesOverlappingBalls) {
  const Point a{0, 0};
  const Point b{1, 0};
  const auto n = neighborhood(std::vector<Point>{a, b}, 2);
  // Equivalent to the 2x1 box neighborhood.
  EXPECT_EQ(static_cast<std::int64_t>(n.size()),
            box_neighborhood_volume({2, 1}, 2));
}

TEST(DemandMap, SetAddEraseTotals) {
  DemandMap d(2);
  d.set(Point{0, 0}, 2.5);
  d.add(Point{0, 0}, 0.5);
  d.set(Point{3, 4}, 1.0);
  EXPECT_DOUBLE_EQ(d.total(), 4.0);
  EXPECT_DOUBLE_EQ(d.max_demand(), 3.0);
  EXPECT_EQ(d.support_size(), 2u);
  d.set(Point{0, 0}, 0.0);
  EXPECT_EQ(d.support_size(), 1u);
  EXPECT_DOUBLE_EQ(d.at(Point{0, 0}), 0.0);
  EXPECT_THROW(d.set(Point{1, 1}, -1.0), check_error);
}

TEST(DemandMap, AddMatchesAtThenSetIncludingIterationOrder) {
  // add() probes the hash once; it must leave exactly the map that
  // set(p, at(p) + delta) leaves: same entries, same bits, same order.
  Rng rng(31);
  DemandMap fast(2), slow(2);
  for (int i = 0; i < 5000; ++i) {
    const Point p{rng.next_int(0, 40), rng.next_int(0, 40)};
    double delta = 0.0;
    switch (rng.next_int(0, 3)) {
      case 0: delta = 1.0; break;
      case 1: delta = rng.next_double(0.0, 3.0); break;
      case 2: delta = -fast.at(p); break;  // erase-at-zero (or a 0 no-op)
      default: delta = 0.0; break;
    }
    fast.add(p, delta);
    slow.set(p, slow.at(p) + delta);
  }
  ASSERT_EQ(fast.support_size(), slow.support_size());
  auto a = fast.begin();
  for (auto b = slow.begin(); b != slow.end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    EXPECT_EQ(std::memcmp(&a->second, &b->second, sizeof(double)), 0);
  }
  const double tf = fast.total(), ts = slow.total();
  EXPECT_EQ(std::memcmp(&tf, &ts, sizeof(double)), 0);
  EXPECT_THROW(fast.add(Point{99, 99}, -1.0), check_error);
  EXPECT_DOUBLE_EQ(fast.at(Point{99, 99}), 0.0);
  EXPECT_EQ(fast.support_size(), slow.support_size());
}

TEST(DemandMap, SupportSortedAndBoundingBox) {
  DemandMap d(2);
  d.set(Point{5, 1}, 1.0);
  d.set(Point{-2, 3}, 1.0);
  d.set(Point{0, 0}, 1.0);
  const auto s = d.support();
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  const Box bb = d.bounding_box();
  EXPECT_EQ(bb.lo(), (Point{-2, 0}));
  EXPECT_EQ(bb.hi(), (Point{5, 3}));
  EXPECT_DOUBLE_EQ(d.sum_in(Box(Point{-2, 0}, Point{0, 3})), 2.0);
}

TEST(DenseGrid, RoundTripsDemand) {
  DemandMap d(2);
  d.set(Point{1, 1}, 2.0);
  d.set(Point{4, 2}, 3.0);
  const DenseGrid g = DenseGrid::from_demand(d);
  EXPECT_DOUBLE_EQ(g.at(Point{1, 1}), 2.0);
  EXPECT_DOUBLE_EQ(g.at(Point{4, 2}), 3.0);
  EXPECT_DOUBLE_EQ(g.at(Point{2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(g.total(), 5.0);
  EXPECT_DOUBLE_EQ(g.max_value(), 3.0);
}

class PrefixSumRandom : public ::testing::TestWithParam<int> {};

TEST_P(PrefixSumRandom, MatchesBruteForce) {
  const int dim = GetParam();
  Rng rng(static_cast<std::uint64_t>(1000 + dim));
  Point lo = Point::origin(dim), hi = Point::origin(dim);
  for (int i = 0; i < dim; ++i) {
    lo[i] = rng.next_int(-3, 0);
    hi[i] = lo[i] + rng.next_int(2, dim <= 2 ? 8 : 4);
  }
  const Box box(lo, hi);
  DenseGrid g(box);
  box.for_each_point(
      [&](const Point& p) { g.set(p, rng.next_double(0, 10)); });
  const PrefixSums ps(g);

  for (int trial = 0; trial < 50; ++trial) {
    Point qlo = Point::origin(dim), qhi = Point::origin(dim);
    for (int i = 0; i < dim; ++i) {
      qlo[i] = rng.next_int(lo[i] - 1, hi[i]);
      qhi[i] = rng.next_int(qlo[i], hi[i] + 1);
    }
    const Box query(qlo, qhi);
    double expected = 0.0;
    query.for_each_point([&](const Point& p) {
      if (box.contains(p)) expected += g.at(p);
    });
    EXPECT_NEAR(ps.box_sum(query), expected, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, PrefixSumRandom, ::testing::Values(1, 2, 3));

TEST(PrefixSums, MaxCubeSumFindsHotWindow) {
  DemandMap d(2);
  // Hot 2x2 block worth 10 plus scattered singles.
  d.set(Point{4, 4}, 3.0);
  d.set(Point{4, 5}, 3.0);
  d.set(Point{5, 4}, 2.0);
  d.set(Point{5, 5}, 2.0);
  d.set(Point{0, 0}, 1.0);
  d.set(Point{9, 9}, 1.0);
  const DenseGrid g = DenseGrid::from_demand(d);
  const PrefixSums ps(g);
  EXPECT_DOUBLE_EQ(ps.max_cube_sum(1), 3.0);
  EXPECT_DOUBLE_EQ(ps.max_cube_sum(2), 10.0);
  EXPECT_DOUBLE_EQ(ps.max_cube_sum(100), 12.0);
}

TEST(PrefixSums, BlockedBuildMatchesReferenceBitForBit) {
  // Both builds perform each lattice chain's additions in the same order,
  // so the tables must agree exactly (==, not near) — on random demand
  // with non-integral values, across dimensions and query shapes.
  Rng rng(77);
  for (const int dim : {2, 3}) {
    const std::int64_t span = dim == 2 ? 40 : 12;
    DemandMap d(dim);
    for (int i = 0; i < 300; ++i) {
      Point p = Point::origin(dim);
      for (int a = 0; a < dim; ++a) p[a] = rng.next_int(0, span - 1);
      d.add(p, rng.next_double(0.0, 1.0) + 0.1);
    }
    const DenseGrid g = DenseGrid::from_demand(d);
    const PrefixSums blocked(g, PrefixBuild::kBlocked);
    const PrefixSums reference(g, PrefixBuild::kReference);
    for (const std::int64_t side : {std::int64_t{1}, std::int64_t{2},
                                    std::int64_t{4}, std::int64_t{7}}) {
      EXPECT_EQ(blocked.max_cube_sum(side), reference.max_cube_sum(side))
          << "dim=" << dim << " side=" << side;
    }
    for (int q = 0; q < 50; ++q) {
      Point lo = Point::origin(dim);
      Point hi = Point::origin(dim);
      for (int a = 0; a < dim; ++a) {
        const std::int64_t x = rng.next_int(0, span - 1);
        const std::int64_t y = rng.next_int(0, span - 1);
        lo[a] = std::min(x, y);
        hi[a] = std::max(x, y);
      }
      const Box query(lo, hi);
      EXPECT_EQ(blocked.box_sum(query), reference.box_sum(query))
          << "dim=" << dim << " query=" << query.to_string();
    }
  }
}

}  // namespace
}  // namespace cmvrp
