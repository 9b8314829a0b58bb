#include <gtest/gtest.h>

#include <set>

#include "util/check.h"
#include "util/flat_map.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace cmvrp {
namespace {

TEST(Check, ThrowsWithLocation) {
  try {
    CMVRP_CHECK_MSG(1 == 2, "math broke " << 42);
    FAIL() << "expected throw";
  } catch (const check_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 250);
}

TEST(Rng, NextIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.next_int(3, 3), 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, WeightedSamplingRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{1.0, 0.0, 3.0};
  int c0 = 0, c2 = 0;
  for (int i = 0; i < 8000; ++i) {
    const auto k = rng.next_weighted(w);
    ASSERT_NE(k, 1u);
    if (k == 0)
      ++c0;
    else
      ++c2;
  }
  EXPECT_NEAR(static_cast<double>(c2) / c0, 3.0, 0.5);
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextIntDegenerateRange) {
  Rng rng(43);
  for (std::int64_t lo : {std::int64_t{-7}, std::int64_t{0}, std::int64_t{9}})
    for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_int(lo, lo), lo);
}

TEST(Rng, WeightedSinglePositiveWeightAlwaysChosen) {
  Rng rng(47);
  const std::vector<double> w{0.0, 0.0, 5.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.next_weighted(w), 2u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_weighted({2.5}), 0u);
}

TEST(Rng, SameSeedReplaysBitForBitAcrossAllDraws) {
  Rng a(0xfeedface), b(0xfeedface);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.next_below(97), b.next_below(97));
    EXPECT_EQ(a.next_int(-1000, 1000), b.next_int(-1000, 1000));
    EXPECT_EQ(a.next_double(), b.next_double());
    EXPECT_EQ(a.next_bool(0.3), b.next_bool(0.3));
    EXPECT_EQ(a.next_gaussian(), b.next_gaussian());
    EXPECT_EQ(a.next_weighted({1.0, 2.0, 3.0}), b.next_weighted({1.0, 2.0, 3.0}));
  }
  // Children derived at the same point replay identically too.
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    seen.insert(a.next_u64());
    seen.insert(child.next_u64());
  }
  EXPECT_EQ(seen.size(), 200u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// Golden sequences, pinned from the out-of-line generator: next_below
// must draw and return exactly these whether a bound takes the
// power-of-two mask path (1, 2, 4, 2^40) or rejection sampling (6, and
// 2^63 + 1, which rejects about half of all draws).
TEST(Rng, NextU64GoldenSequence) {
  const std::uint64_t want[16] = {
      0xafcc5862d26d5474ull, 0xa779bd079c146fa1ull, 0x71fb0f3cae84e308ull,
      0x5887ece1c19b48d1ull, 0x19bca5d5c0b1ded0ull, 0xd8ce36655da0cad9ull,
      0xf0425bdd0b8233f2ull, 0x94dedf07d02d5f4full, 0x1d9513e36be4b5e0ull,
      0xa7da72cfdec15392ull, 0xbaf73c4870d234c8ull, 0x2372e7f71211c1dcull,
      0x7375118f36f28cd1ull, 0xf0e3be4effe1e803ull, 0xd5934d6e8f30a279ull,
      0x734dbb9294f2ebddull};
  Rng rng(20261018);
  for (std::uint64_t w : want) EXPECT_EQ(rng.next_u64(), w);
}

TEST(Rng, NextBelowGoldenSequences) {
  struct Golden {
    std::uint64_t bound;
    std::uint64_t want[16];
  };
  const Golden goldens[] = {
      {1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {2, {0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1}},
      {4, {0, 1, 0, 1, 0, 1, 2, 3, 0, 2, 0, 0, 1, 3, 1, 1}},
      {6, {4, 5, 2, 5, 4, 1, 2, 1, 0, 0, 2, 4, 5, 1, 1, 3}},
      {1ull << 40,
       {424437175412u, 32683356065u, 260625982216u, 969615821009u,
        918060916432u, 435362515673u, 949380854770u, 33557405519u,
        976767727072u, 892795442066u, 311130469576u, 1061160075740u,
        615102188753u, 339300444163u, 474848731769u, 629564173277u}},
      {(1ull << 63) + 1,
       {3444224996492006515u, 2844512480042184608u, 6399111929530469080u,
        8089128885649814513u, 1503884550238723918u, 2871733949523121041u,
        4248931055275488455u, 8134554598470969346u, 6166357452044411512u,
        1645153506440649599u, 5515226290128756999u, 8361449231928837680u,
        3537474531933375377u, 4084523275802453143u, 211343922192026474u,
        3921237124567899990u}},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.bound);
    Rng rng(20261018);
    for (std::uint64_t w : g.want) EXPECT_EQ(rng.next_below(g.bound), w);
  }
}

// --- FlatMap -----------------------------------------------------------------

TEST(FlatMap, ValuesAndInsertionOrderSurviveRehash) {
  FlatMap<std::uint64_t, std::uint64_t, U64Hash> map;
  const std::uint64_t n = 10000;
  for (std::uint64_t i = 0; i < n; ++i)
    map[i * 0x9e3779b97f4a7c15ull] = i + 1;
  ASSERT_EQ(map.size(), n);
  // Every growth step rehashed the index; the items did not move.
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t key = i * 0x9e3779b97f4a7c15ull;
    ASSERT_EQ(map.items()[i].key, key);
    ASSERT_NE(map.find(key), nullptr);
    ASSERT_EQ(*map.find(key), i + 1);
  }
  EXPECT_EQ(map.size(), n);
}

// Three hash buckets for everything: long linear-probe runs.
struct ModThreeHash {
  std::size_t operator()(std::uint64_t k) const { return k % 3; }
};

TEST(FlatMap, LookupsAgreeAndIterationFollowsInsertion) {
  FlatMap<std::uint64_t, int, ModThreeHash> map;
  Rng rng(5);
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t key = rng.next_below(300);
    const bool fresh = map.find(key) == nullptr;
    if (i % 2 == 0 || fresh) {
      map[key] += 1;
    } else {
      *map.find(key) += 1;
    }
    if (fresh) order.push_back(key);
  }
  ASSERT_EQ(map.size(), order.size());
  std::size_t k = 0;
  for (const auto& item : map) {
    ASSERT_EQ(item.key, order[k]);
    EXPECT_EQ(&map[item.key], map.find(item.key));
    EXPECT_EQ(&map.items()[k].value, map.find(item.key));
    EXPECT_EQ(*map.find(item.key), item.value);
    ++k;
  }
  EXPECT_EQ(map.size(), order.size());  // lookups above inserted nothing
  EXPECT_EQ(map.find(1000), nullptr);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(31);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double(-3, 5);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.9), 90.1, 1e-9);
}

// Regression: add() after a quantile() must invalidate the cached sort —
// the stale order used to surface later samples at the wrong quantiles.
TEST(SampleSet, AddAfterQuantileResortsBeforeNextQuantile) {
  SampleSet s;
  for (double x : {5.0, 1.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);  // sorts [1, 5, 9]
  s.add(0.5);                         // must mark the sort stale
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);  // [0.5, 1, 5, 9, 20]
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  for (double x : {-1.0, 0.0, 1.9, 2.0, 9.9, 10.0, 42.0}) h.add(x);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0.0 and 1.9
  EXPECT_EQ(h.bucket(1), 1u);  // 2.0
  EXPECT_EQ(h.bucket(4), 1u);  // 9.9
  EXPECT_EQ(h.total(), 7u);
  EXPECT_FALSE(h.render().empty());
}

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsOverflowingRow) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), check_error);
}

}  // namespace
}  // namespace cmvrp
